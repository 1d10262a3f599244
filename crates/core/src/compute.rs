//! Compute servers: the paper's failure unit.
//!
//! A compute server hosts many transaction coordinators (the paper runs
//! up to 512 per node, Table 2) behind **one** network identity: when
//! the server dies, every coordinator on it dies at once, and one
//! active-link termination fences them all — literally one: the recovery
//! coordinator remembers an endpoint every memory node acknowledged
//! revoking, so [`ComputeNode::recover_all`] sends the revocation
//! fan-out with the first coordinator it recovers and the reports'
//! `link_fanouts` sum to 1. [`ComputeNode`] models this grouping — a
//! shared endpoint and a shared [`FaultInjector`] — while each
//! coordinator keeps its own coordinator-id, heartbeat lease, and queue
//! pairs.

use std::sync::Arc;

use rdma_sim::{EndpointId, FaultInjector, RdmaResult};

use crate::context::SharedContext;
use crate::coordinator::Coordinator;
use crate::fd::{CoordinatorLease, FailureDetector};
use crate::recovery::RecoveryReport;

/// A compute server hosting multiple coordinators that live and die
/// together.
pub struct ComputeNode {
    ctx: Arc<SharedContext>,
    fd: Arc<FailureDetector>,
    endpoint: EndpointId,
    injector: Arc<FaultInjector>,
    leases: Vec<CoordinatorLease>,
}

impl ComputeNode {
    /// Register a new compute server on the fabric.
    pub fn new(ctx: Arc<SharedContext>, fd: Arc<FailureDetector>) -> ComputeNode {
        let endpoint = ctx.fabric.register_endpoint();
        ComputeNode { ctx, fd, endpoint, injector: FaultInjector::new(), leases: Vec::new() }
    }

    pub fn endpoint(&self) -> EndpointId {
        self.endpoint
    }

    /// The server-wide fault injector: [`FaultInjector::crash_now`] (or a
    /// [`rdma_sim::CrashPlan`] over the server's combined verb stream)
    /// power-cuts every coordinator at once.
    pub fn injector(&self) -> Arc<FaultInjector> {
        Arc::clone(&self.injector)
    }

    /// Spawn a coordinator on this server: it shares the server's
    /// endpoint and injector but gets its own coordinator-id and
    /// heartbeat lease from the failure detector.
    pub fn spawn_coordinator(&mut self) -> RdmaResult<(Coordinator, CoordinatorLease)> {
        let lease = self.fd.register(self.endpoint);
        let co = Coordinator::connect_grouped(
            Arc::clone(&self.ctx),
            lease.coord_id,
            self.endpoint,
            Arc::clone(&self.injector),
        )?;
        self.leases.push(lease.clone());
        Ok((co, lease))
    }

    /// Coordinator-ids hosted on this server.
    pub fn coordinator_ids(&self) -> Vec<u16> {
        self.leases.iter().map(|l| l.coord_id).collect()
    }

    /// Power-cut the whole server.
    pub fn crash(&self) {
        self.injector.crash_now();
    }

    /// Declare the whole server failed and recover every coordinator it
    /// hosted (what the FD monitor does when all its heartbeats stop).
    /// Returns one report per coordinator.
    pub fn recover_all(&self) -> Vec<RecoveryReport> {
        self.leases.iter().filter_map(|l| self.fd.declare_failed(l.coord_id)).collect()
    }
}
