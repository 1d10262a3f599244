//! Multi-QP striping: a bundle of N reliable-connection queue pairs
//! between one compute endpoint and one memory node.
//!
//! A single RC queue pair serializes *all* completions to a node behind
//! one chain (see [`QueuePair`]): a delayed verb pushes every later
//! verb's completion out, even when they touch unrelated objects. Real
//! RDMA transaction systems spread traffic over several QPs per peer so
//! that unrelated requests complete independently, while anything that
//! *needs* RC ordering is kept on one QP.
//!
//! [`QpStripe`] models exactly that: `width` independent lanes plus a
//! deterministic route — a hash of the remote address a verb (or verb
//! group) is about — choosing the lane. Same address ⇒ same lane ⇒
//! post-order completion (RC ordering preserved where it is relied on);
//! different addresses ⇒ usually different lanes ⇒ completions may
//! arrive out of post order, as real NICs allow.
//!
//! Fault-model coverage is stripe-wide by construction: every lane is an
//! ordinary [`QueuePair`] created through the fabric's data-QP path, so
//! it carries its own chaos link, flight tap, revocation check, and the
//! stripe's shared [`FaultInjector`](crate::FaultInjector). Lanes of one
//! stripe share the per-(endpoint, node) chaos link *state*, so the
//! fault schedule stays keyed to the link's total verb count — the same
//! determinism rule as a single QP (see [`crate::chaos`]).
//!
//! A stripe of width 1 is just a single QP behind the routing no-op:
//! `lane_for` always answers 0 and behavior is byte-identical to the
//! unstriped fabric.

use crate::fabric::{EndpointId, NodeId};
use crate::qp::{OpCountersSnapshot, QueuePair};

/// A bundle of `width` queue pairs from one endpoint to one node, with
/// address-hash lane selection. Created via
/// [`Fabric::qp_stripe`](crate::Fabric::qp_stripe) — **after**
/// `install_chaos`/`install_flight`, so every lane carries the taps.
pub struct QpStripe {
    lanes: Vec<QueuePair>,
}

impl QpStripe {
    pub(crate) fn new(lanes: Vec<QueuePair>) -> QpStripe {
        assert!(!lanes.is_empty(), "a stripe needs at least one lane");
        QpStripe { lanes }
    }

    /// Number of lanes.
    #[inline]
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    pub fn node_id(&self) -> NodeId {
        self.lanes[0].node_id()
    }

    pub fn endpoint(&self) -> EndpointId {
        self.lanes[0].endpoint()
    }

    /// Deterministic lane for a route address (multiply-shift hash of
    /// the remote address the verb group is about). Verbs that must stay
    /// RC-ordered with each other must be posted with the *same* route —
    /// the convention used by the protocol layer is the base address of
    /// the object (slot, log lane) being operated on.
    #[inline]
    pub fn lane_for(&self, route: u64) -> u32 {
        if self.lanes.len() == 1 {
            return 0;
        }
        ((route.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % self.lanes.len() as u64) as u32
    }

    /// Lane by index.
    #[inline]
    pub fn lane(&self, idx: u32) -> &QueuePair {
        &self.lanes[idx as usize]
    }

    /// The queue pair the route hashes to.
    #[inline]
    pub fn route(&self, route: u64) -> &QueuePair {
        self.lane(self.lane_for(route))
    }

    /// All lanes, in index order.
    pub fn lanes(&self) -> &[QueuePair] {
        &self.lanes
    }

    /// Posted-but-undelivered verbs across all lanes.
    pub fn in_flight(&self) -> usize {
        self.lanes.iter().map(QueuePair::in_flight).sum()
    }

    /// Drain every lane's completion queue (a stripe-wide barrier).
    pub fn wait_all_lanes(&self) -> Vec<crate::Completion> {
        let mut out = Vec::new();
        for l in &self.lanes {
            out.extend(l.wait_all());
        }
        out
    }

    /// Per-lane verb-counter snapshots, in lane order.
    pub fn lane_counters(&self) -> Vec<OpCountersSnapshot> {
        self.lanes.iter().map(|l| l.counters().snapshot()).collect()
    }

    /// Field-wise sum of all lanes' counters.
    pub fn counters_snapshot(&self) -> OpCountersSnapshot {
        self.lane_counters()
            .iter()
            .fold(OpCountersSnapshot::default(), |a, c| a.plus(c))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use crate::fabric::{Fabric, FabricConfig, NodeId};
    use crate::fault::FaultInjector;
    use crate::latency::LatencyModel;

    fn fabric(rtt_us: u64) -> Arc<Fabric> {
        Fabric::new(FabricConfig {
            memory_nodes: 1,
            capacity_per_node: 1 << 16,
            latency: LatencyModel { rtt: Duration::from_micros(rtt_us), ns_per_kib: 0 },
        })
    }

    #[test]
    fn width_one_routes_everything_to_lane_zero() {
        let f = fabric(0);
        let s = f.qp_stripe(f.register_endpoint(), NodeId(0), FaultInjector::new(), 1).unwrap();
        assert_eq!(s.width(), 1);
        for addr in [0u64, 8, 64, 4096, u64::MAX] {
            assert_eq!(s.lane_for(addr), 0);
        }
    }

    #[test]
    fn same_route_same_lane_and_routing_is_deterministic() {
        let f = fabric(0);
        let s = f.qp_stripe(f.register_endpoint(), NodeId(0), FaultInjector::new(), 4).unwrap();
        assert_eq!(s.width(), 4);
        for addr in (0..4096u64).step_by(8) {
            assert_eq!(s.lane_for(addr), s.lane_for(addr), "routing must be a pure function");
            assert!((s.lane_for(addr) as usize) < 4);
        }
        // The hash actually spreads: 512 distinct addresses must not all
        // land on one lane.
        let mut seen = [false; 4];
        for addr in (0..4096u64).step_by(8) {
            seen[s.lane_for(addr) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "hash failed to reach every lane: {seen:?}");
    }

    #[test]
    fn lanes_share_memory_but_complete_independently() {
        let f = fabric(2000);
        let s = f.qp_stripe(f.register_endpoint(), NodeId(0), FaultInjector::new(), 4).unwrap();
        // Write through one lane, read through another: effects are
        // eager and target the same node memory.
        s.lane(0).post_write(0, &7u64.to_le_bytes()).unwrap();
        let id = s.lane(3).post_read(0, 8).unwrap();
        let comps = s.wait_all_lanes();
        let read = comps.iter().find(|c| c.work_id == id && c.data.is_some()).unwrap();
        assert_eq!(read.data.as_deref(), Some(7u64.to_le_bytes().as_slice()));
    }

    #[test]
    fn stripe_counters_aggregate_across_lanes() {
        let f = fabric(0);
        let s = f.qp_stripe(f.register_endpoint(), NodeId(0), FaultInjector::new(), 3).unwrap();
        s.lane(0).write_u64(0, 1).unwrap();
        s.lane(1).write_u64(8, 2).unwrap();
        s.lane(2).read_u64(0).unwrap();
        let total = s.counters_snapshot();
        assert_eq!((total.writes, total.reads), (2, 1));
        let per_lane = s.lane_counters();
        assert_eq!(per_lane.len(), 3);
        assert_eq!(per_lane[0].writes, 1);
        assert_eq!(per_lane[2].reads, 1);
        // The fabric reports the same lanes while the stripe lives, adds a
        // second stripe's lane-wise, keeps both once they are gone, and
        // leaves an unstriped link out.
        assert_eq!(f.stripe_counters(), vec![(NodeId(0), per_lane.clone())]);
        let other = f.qp_stripe(f.register_endpoint(), NodeId(0), FaultInjector::new(), 2).unwrap();
        other.lane(1).write_u64(16, 3).unwrap();
        f.qp(f.register_endpoint(), NodeId(0), FaultInjector::new())
            .unwrap()
            .read_u64(0)
            .unwrap();
        drop((s, other));
        let lanes = &f.stripe_counters()[0].1;
        assert_eq!(lanes.len(), 3);
        assert_eq!((lanes[0].writes, lanes[1].writes, lanes[2].reads), (1, 2, 1));
        assert_eq!(lanes.iter().map(|l| l.total_ops()).sum::<u64>(), 4);
    }

    #[test]
    fn injector_crash_stops_every_lane() {
        let f = fabric(0);
        let inj = FaultInjector::new();
        let s = f.qp_stripe(f.register_endpoint(), NodeId(0), Arc::clone(&inj), 4).unwrap();
        inj.crash_now();
        for i in 0..4 {
            assert!(s.lane(i).write_u64(0, 1).is_err(), "lane {i} survived the crash");
        }
    }
}
