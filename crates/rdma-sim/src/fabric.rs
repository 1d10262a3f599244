use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::bounded;
use parking_lot::RwLock;

use crate::chaos::ChaosModel;
use crate::cq::{Telemetry, VerbLatencySnapshot};
use crate::error::{RdmaError, RdmaResult};
use crate::fault::FaultInjector;
use crate::flight::{FabricClock, FlightTap, VerbSink};
use crate::latency::LatencyModel;
use crate::mem::{MemoryNode, MAX_ENDPOINTS};
use crate::qp::{OpCountersSnapshot, QueuePair};
use crate::rpc::{CtrlClient, CtrlRequest, CtrlResponse, CtrlService};
use crate::stripe::QpStripe;

/// Identifier of a memory server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

/// Identifier of a compute endpoint (one per compute-server process).
/// Revocation operates at this granularity: terminating the links of a
/// failed compute server cuts off *all* its coordinators at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointId(pub u32);

/// Fabric construction parameters.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of memory servers.
    pub memory_nodes: u16,
    /// Registered memory per server, in bytes.
    pub capacity_per_node: u64,
    /// Latency model applied to every queue pair created on this fabric.
    pub latency: LatencyModel,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig { memory_nodes: 2, capacity_per_node: 64 << 20, latency: LatencyModel::zero() }
    }
}

/// The simulated RDMA fabric: the set of memory nodes plus endpoint
/// registration. Cloneable via `Arc`; all state is internally synchronized.
pub struct Fabric {
    nodes: Vec<Arc<MemoryNode>>,
    ctrl: Vec<CtrlClient>,
    next_endpoint: AtomicU32,
    latency: LatencyModel,
    /// Optional chaos model; when absent, queue pairs carry no chaos
    /// handle and verbs pay zero overhead. Installed before the QPs that
    /// should see it are created.
    chaos: RwLock<Option<Arc<ChaosModel>>>,
    /// The fabric-wide monotonic clock every trace timestamp derives
    /// from (ns offsets from fabric creation).
    clock: FabricClock,
    /// Optional verb sink (flight recorder); same install discipline as
    /// chaos: QPs created after installation carry a tap, `qp_admin`
    /// QPs never do.
    flight: RwLock<Option<Arc<dyn VerbSink>>>,
    /// Striped bundles handed out so far — guards the chaos install
    /// ordering (`install_chaos` debug-asserts this is still zero).
    stripes_created: AtomicU64,
    /// Post→completion latency histograms and verb counters, one block
    /// per live queue pair (admin QPs included), plus one in-flight verb
    /// gauge per connected endpoint. A QP writes its own block and its
    /// endpoint's gauge only; the snapshot functions below sum them, and
    /// a dropped QP has been folded into the registry's retired totals,
    /// so counts survive QP teardown.
    pub(crate) telemetry: Arc<Telemetry>,
}

impl Fabric {
    pub fn new(config: FabricConfig) -> Arc<Self> {
        let mut nodes = Vec::with_capacity(config.memory_nodes as usize);
        let mut ctrl = Vec::with_capacity(config.memory_nodes as usize);
        for i in 0..config.memory_nodes {
            let node = Arc::new(MemoryNode::new(NodeId(i), config.capacity_per_node));
            let svc = CtrlService::spawn(Arc::clone(&node));
            ctrl.push(CtrlClient { tx: svc.tx });
            nodes.push(node);
        }
        Arc::new(Fabric {
            nodes,
            ctrl,
            next_endpoint: AtomicU32::new(0),
            latency: config.latency,
            chaos: RwLock::new(None),
            clock: FabricClock::new(),
            flight: RwLock::new(None),
            stripes_created: AtomicU64::new(0),
            telemetry: Telemetry::new(config.memory_nodes as usize),
        })
    }

    /// Snapshot of the fabric-wide post→completion verb-latency
    /// histograms plus the in-flight gauge — both summed over every
    /// endpoint, live or gone — and the gauge's high-water mark, which is
    /// the deepest any *one* endpoint has been.
    pub fn verb_stats(&self) -> VerbLatencySnapshot {
        self.telemetry.totals().verb_snapshot()
    }

    /// The fabric's epoch clock. All flight-recorder timestamps are ns
    /// offsets on this clock, so spans from different threads interleave
    /// on one time axis.
    pub fn clock(&self) -> FabricClock {
        self.clock
    }

    /// Install a verb sink (flight recorder). Queue pairs created
    /// *after* this call carry a per-link tap; pre-existing QPs and
    /// `qp_admin` QPs are unaffected — admin traffic (bulk loads,
    /// raw-slot audits) stays out of traces by construction.
    pub fn install_flight(&self, sink: Arc<dyn VerbSink>) {
        *self.flight.write() = Some(sink);
    }

    /// Install a chaos model. Queue pairs created *after* this call pick
    /// up per-link chaos handles; pre-existing QPs (and `qp_admin` QPs)
    /// are unaffected.
    ///
    /// Striped bundles ([`Fabric::qp_stripe`]) must therefore be created
    /// *after* installation — a stripe built earlier would silently run
    /// all of its lanes outside the fault model. Debug builds assert
    /// that no stripe predates the installation; single QPs keep the
    /// historical create-then-install leniency because observer QPs in
    /// tests rely on it.
    pub fn install_chaos(&self, model: Arc<ChaosModel>) {
        debug_assert_eq!(
            self.stripes_created.load(Ordering::Acquire),
            0,
            "install_chaos after qp_stripe: chaos links attach at QP creation, \
             so already-built stripes would bypass the fault model"
        );
        *self.chaos.write() = Some(model);
    }

    /// The installed chaos model, if any.
    pub fn chaos(&self) -> Option<Arc<ChaosModel>> {
        self.chaos.read().clone()
    }

    pub fn num_nodes(&self) -> u16 {
        self.nodes.len() as u16
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|n| n.id())
    }

    pub fn node(&self, id: NodeId) -> RdmaResult<&Arc<MemoryNode>> {
        self.nodes.get(id.0 as usize).ok_or(RdmaError::NodeUnknown(id.0))
    }

    /// Register a compute endpoint (connection setup, control path).
    pub fn register_endpoint(&self) -> EndpointId {
        let id = self.next_endpoint.fetch_add(1, Ordering::AcqRel);
        assert!((id as usize) < MAX_ENDPOINTS, "too many endpoints");
        EndpointId(id)
    }

    /// Create a reliable-connection queue pair from `endpoint` to `node`.
    /// `injector` carries compute-side crash faults; pass the same
    /// injector to every QP of one logical coordinator.
    pub fn qp(
        &self,
        endpoint: EndpointId,
        node: NodeId,
        injector: Arc<FaultInjector>,
    ) -> RdmaResult<QueuePair> {
        self.connect(endpoint, node, injector, self.latency, None)
    }

    /// Queue pair with an explicit latency model, overriding the
    /// fabric-wide one. Setup paths (bulk loads, admin scans) use
    /// [`LatencyModel::zero`] so experiment preparation does not pay the
    /// injected network delay being modelled for the data path.
    pub fn qp_with_latency(
        &self,
        endpoint: EndpointId,
        node: NodeId,
        injector: Arc<FaultInjector>,
        latency: LatencyModel,
    ) -> RdmaResult<QueuePair> {
        self.connect(endpoint, node, injector, latency, None)
    }

    /// A data-path queue pair carrying the installed chaos link and
    /// flight tap; `lane` when it is one lane of a stripe.
    fn connect(
        &self,
        endpoint: EndpointId,
        node: NodeId,
        injector: Arc<FaultInjector>,
        latency: LatencyModel,
        lane: Option<u32>,
    ) -> RdmaResult<QueuePair> {
        let node = Arc::clone(self.node(node)?);
        let chaos = self.chaos.read().as_ref().map(|m| m.link(endpoint.0, node.id().0));
        let flight = self
            .flight
            .read()
            .as_ref()
            .map(|s| FlightTap::new(Arc::clone(s), self.clock, endpoint.0, node.id().0));
        let telemetry = self.telemetry.lease(endpoint.0, node.id().0, lane);
        Ok(QueuePair::new(node, endpoint, injector, latency, telemetry, chaos, flight, self.clock))
    }

    /// Create a [`QpStripe`]: `width` independent queue pairs from
    /// `endpoint` to `node` behind a deterministic address-hash router.
    /// All lanes share the coordinator's `injector` and — when chaos is
    /// installed — the per-(endpoint, node) link state, so the fault
    /// schedule stays keyed to the link's total verb order across lanes.
    ///
    /// Must be called *after* `install_chaos` when a chaos model is in
    /// play (see [`Fabric::install_chaos`]); debug builds enforce the
    /// ordering.
    pub fn qp_stripe(
        &self,
        endpoint: EndpointId,
        node: NodeId,
        injector: Arc<FaultInjector>,
        width: u32,
    ) -> RdmaResult<QpStripe> {
        let width = width.max(1);
        self.stripes_created.fetch_add(1, Ordering::AcqRel);
        let mut lanes = Vec::with_capacity(width as usize);
        for lane in 0..width {
            let injector = Arc::clone(&injector);
            lanes.push(self.connect(endpoint, node, injector, self.latency, Some(lane))?);
        }
        Ok(QpStripe::new(lanes))
    }

    /// Administrative queue pair: zero latency and **no chaos**, for
    /// setup and inspection paths (bulk loads, raw-slot audits) that must
    /// not be perturbed by the fault model under test.
    pub fn qp_admin(
        &self,
        endpoint: EndpointId,
        node: NodeId,
        injector: Arc<FaultInjector>,
    ) -> RdmaResult<QueuePair> {
        let node = Arc::clone(self.node(node)?);
        let telemetry = self.telemetry.lease(endpoint.0, node.id().0, None);
        Ok(QueuePair::new(
            node,
            endpoint,
            injector,
            LatencyModel::zero(),
            telemetry,
            None,
            None,
            self.clock,
        ))
    }

    /// Aggregate verb counters for all traffic that ever targeted `node`,
    /// across every QP (live or torn down).
    pub fn node_counters(&self, node: NodeId) -> RdmaResult<OpCountersSnapshot> {
        self.node(node)?; // validate id
        Ok(self.telemetry.totals().nodes[node.0 as usize])
    }

    /// Per-node verb counters for the whole fabric, in node-id order.
    pub fn per_node_counters(&self) -> Vec<(NodeId, OpCountersSnapshot)> {
        self.nodes.iter().map(|n| n.id()).zip(self.telemetry.totals().nodes).collect()
    }

    /// Per-lane verb counters of every striped link ([`Fabric::qp_stripe`])
    /// that ever targeted a node, live or torn down, in node-id then lane
    /// order; nodes no stripe targets are left out.
    pub fn stripe_counters(&self) -> Vec<(NodeId, Vec<OpCountersSnapshot>)> {
        let lanes = self.telemetry.totals().stripes;
        self.node_ids().zip(lanes).filter(|(_, l)| !l.is_empty()).collect()
    }

    /// Fabric-wide verb counters: the sum over all memory nodes.
    pub fn total_counters(&self) -> OpCountersSnapshot {
        self.telemetry
            .totals()
            .nodes
            .iter()
            .fold(OpCountersSnapshot::default(), |acc, c| acc.plus(c))
    }

    /// Control-path client for `node` (wimpy-core RPC).
    pub fn control(&self, node: NodeId) -> RdmaResult<CtrlClient> {
        self.node(node)?; // validate id
        Ok(self.ctrl[node.0 as usize].clone())
    }

    /// Crash-stop a memory server.
    pub fn kill_node(&self, node: NodeId) -> RdmaResult<()> {
        self.node(node)?.kill();
        Ok(())
    }

    /// Revive a previously killed memory server (contents retained).
    pub fn revive_node(&self, node: NodeId) -> RdmaResult<()> {
        self.node(node)?.revive();
        Ok(())
    }

    /// One control-path request to every live memory node: all of them
    /// are sent before the first reply is awaited — the replies come back
    /// on one channel — so the call costs one hand-off to a wimpy core,
    /// not one per node. Returns the number of nodes that acknowledged;
    /// dead nodes are skipped (their memory is unreachable anyway).
    fn ctrl_everywhere(&self, req: CtrlRequest) -> usize {
        let (reply_tx, replies) = bounded(self.ctrl.len());
        let mut sent = 0;
        for (c, node) in self.ctrl.iter().zip(&self.nodes) {
            if node.is_alive() && c.tx.send((req, reply_tx.clone())).is_ok() {
                sent += 1;
            }
        }
        // With our own sender gone, a request dropped unanswered ends the
        // wait instead of hanging it.
        drop(reply_tx);
        (0..sent).filter(|_| matches!(replies.recv(), Ok(CtrlResponse::Ok))).count()
    }

    /// Active-link termination of `endpoint` on **every** live memory
    /// node, via control-path RPCs (paper §3.2.2, step 2). Returns the
    /// number of nodes that acknowledged.
    pub fn revoke_everywhere(&self, endpoint: EndpointId) -> usize {
        self.ctrl_everywhere(CtrlRequest::Revoke { endpoint: endpoint.0 })
    }

    /// Restore `endpoint` on every live memory node.
    pub fn restore_everywhere(&self, endpoint: EndpointId) -> usize {
        self.ctrl_everywhere(CtrlRequest::Restore { endpoint: endpoint.0 })
    }

    /// The latency model active on this fabric.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric() -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            memory_nodes: 3,
            capacity_per_node: 1 << 16,
            latency: LatencyModel::zero(),
        })
    }

    #[test]
    fn endpoints_are_unique() {
        let f = fabric();
        let a = f.register_endpoint();
        let b = f.register_endpoint();
        assert_ne!(a, b);
    }

    #[test]
    fn control_alloc_works() {
        let f = fabric();
        let c = f.control(NodeId(1)).unwrap();
        let off1 = c.alloc(128).unwrap();
        let off2 = c.alloc(128).unwrap();
        assert_ne!(off1, off2);
    }

    #[test]
    fn unknown_node_is_an_error() {
        let f = fabric();
        assert!(f.control(NodeId(9)).is_err());
        assert!(f.kill_node(NodeId(9)).is_err());
    }

    #[test]
    fn dead_node_rejects_control_calls() {
        let f = fabric();
        f.kill_node(NodeId(0)).unwrap();
        let c = f.control(NodeId(0)).unwrap();
        assert_eq!(c.ping(), Err(RdmaError::NodeDead));
        f.revive_node(NodeId(0)).unwrap();
        assert!(c.ping().is_ok());
    }

    #[test]
    fn fabric_aggregates_counters_across_qps() {
        let f = fabric();
        let ep1 = f.register_endpoint();
        let ep2 = f.register_endpoint();
        let qp1 = f.qp(ep1, NodeId(0), FaultInjector::new()).unwrap();
        let qp2 = f.qp(ep2, NodeId(0), FaultInjector::new()).unwrap();

        qp1.write(0, &[7u8; 16]).unwrap();
        qp2.read_u64(0).unwrap();
        qp2.cas(8, 0, 1).unwrap();

        let n0 = f.node_counters(NodeId(0)).unwrap();
        assert_eq!((n0.writes, n0.reads, n0.cas), (1, 1, 1));
        assert_eq!(n0.bytes_written, 16);
        assert_eq!(n0.bytes_read, 8);

        let total = f.total_counters();
        assert_eq!(total.total_ops(), 3);

        let per_node = f.per_node_counters();
        assert_eq!(per_node.len(), 3);
        assert_eq!(per_node[1].1, OpCountersSnapshot::default());
        assert!(f.node_counters(NodeId(9)).is_err());
    }

    #[test]
    fn revoke_everywhere_skips_dead_nodes() {
        let f = fabric();
        let ep = f.register_endpoint();
        f.kill_node(NodeId(2)).unwrap();
        assert_eq!(f.revoke_everywhere(ep), 2);
        assert_eq!(f.restore_everywhere(ep), 2);
    }
}
