//! Data placement: consistent hashing of buckets onto memory servers with
//! f+1 replication (paper §3.2.5: "We use consistent hashing to statically
//! partition data across memory servers, avoiding resizing when new
//! replicas are added or removed").
//!
//! Placement is **bucket-granular**: all keys of one hash bucket share a
//! replica set, so a slot index chosen on the primary addresses the same
//! object on every backup. On a memory-server failure the surviving
//! replicas keep their order and the first live one is the promoted
//! primary — every compute server derives the same answer locally from
//! the failed-node set, with no coordination (paper §3.2.5 step 2).

use rdma_sim::NodeId;

use crate::hash::mix64;

/// Number of points each physical node contributes to the hash ring.
const VNODES: u64 = 64;

/// A set of memory nodes as one machine word (bit `i` = `NodeId(i)`):
/// `Copy`, so the failed-node set travels by value and is published with
/// a single atomic store. Node ids must be below [`NodeSet::CAPACITY`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeSet(u64);

impl NodeSet {
    /// Largest node universe a set can describe.
    pub const CAPACITY: u16 = 64;

    pub const fn from_bits(bits: u64) -> NodeSet {
        NodeSet(bits)
    }

    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The one-element set `{n}`.
    #[inline]
    pub fn only(n: NodeId) -> NodeSet {
        assert!(n.0 < NodeSet::CAPACITY, "node id {} does not fit a NodeSet", n.0);
        NodeSet(1 << n.0)
    }

    #[inline]
    pub fn contains(self, n: NodeId) -> bool {
        n.0 < NodeSet::CAPACITY && self.0 & (1 << n.0) != 0
    }

    /// Members in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        (0..NodeSet::CAPACITY).map(NodeId).filter(move |&n| self.contains(n))
    }
}

/// A short list of memory nodes held by value — what
/// [`Placement::log_servers`] returns, once per logged transaction,
/// without allocating. Dereferences to `[NodeId]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct NodeList {
    /// Entries past `len` stay `NodeId(0)`, so derived equality is list
    /// equality.
    nodes: [NodeId; NodeSet::CAPACITY as usize],
    len: usize,
}

impl FromIterator<NodeId> for NodeList {
    /// Panics past [`NodeSet::CAPACITY`] nodes (a placement never has
    /// more distinct ones).
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeList {
        let mut list = NodeList { nodes: [NodeId(0); NodeSet::CAPACITY as usize], len: 0 };
        for n in iter {
            list.nodes[list.len] = n;
            list.len += 1;
        }
        list
    }
}

impl std::ops::Deref for NodeList {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        &self.nodes[..self.len]
    }
}

impl std::fmt::Debug for NodeList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for NodeList {
    type Item = NodeId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NodeId, { NodeSet::CAPACITY as usize }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.nodes.into_iter().take(self.len)
    }
}

/// Consistent-hash placement over a fixed node universe.
#[derive(Debug, Clone)]
pub struct Placement {
    nodes: Vec<NodeId>,
    /// Replication degree f+1 (paper tolerates up to f memory failures).
    replication: usize,
    /// Sorted ring of (point, node).
    ring: Vec<(u64, NodeId)>,
}

impl Placement {
    pub fn new(nodes: Vec<NodeId>, replication: usize) -> Placement {
        assert!(!nodes.is_empty());
        assert!(replication >= 1 && replication <= nodes.len(), "need replication ≤ node count");
        assert!(
            nodes.iter().all(|n| n.0 < NodeSet::CAPACITY),
            "node ids must be below {}",
            NodeSet::CAPACITY
        );
        let mut ring = Vec::with_capacity(nodes.len() * VNODES as usize);
        for &n in &nodes {
            for v in 0..VNODES {
                ring.push((mix64((n.0 as u64) << 32 | v), n));
            }
        }
        ring.sort_unstable();
        Placement { nodes, replication, ring }
    }

    pub fn replication(&self) -> usize {
        self.replication
    }

    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The replicas (primary first) of `(table_salt, bucket)`, ignoring
    /// failures, without allocating: walk the ring from the bucket's
    /// point and yield the first `replication` distinct nodes.
    pub fn replica_walk(&self, table_salt: u64, bucket: u64) -> impl Iterator<Item = NodeId> + '_ {
        let point = mix64(bucket ^ table_salt.rotate_left(17));
        let start = self.ring.partition_point(|&(p, _)| p < point);
        let mut seen = NodeSet::default();
        (0..self.ring.len())
            .map(move |i| self.ring[(start + i) % self.ring.len()].1)
            .filter(move |&n| {
                let fresh = !seen.contains(n);
                seen.0 |= NodeSet::only(n).0;
                fresh
            })
            .take(self.replication)
    }

    /// The full replica list (primary first) for `(table_salt, bucket)`,
    /// ignoring failures.
    pub fn replicas(&self, table_salt: u64, bucket: u64) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.replication);
        out.extend(self.replica_walk(table_salt, bucket));
        out
    }

    /// The acting primary — the first replica not in `dead` — or `None`
    /// when every replica is dead. Equals
    /// `live_replicas(..).first()` and allocates nothing.
    pub fn primary(&self, table_salt: u64, bucket: u64, dead: NodeSet) -> Option<NodeId> {
        self.replica_walk(table_salt, bucket).find(|&n| !dead.contains(n))
    }

    /// Replica list with dead nodes filtered out; the head is the
    /// (possibly promoted) primary. Empty if every replica is dead
    /// (> f failures — data loss; callers escalate to re-replication).
    pub fn live_replicas(&self, table_salt: u64, bucket: u64, dead: &[NodeId]) -> Vec<NodeId> {
        self.replicas(table_salt, bucket)
            .into_iter()
            .filter(|n| !dead.contains(n))
            .collect()
    }

    /// The f+1 designated **log servers** for a coordinator (paper
    /// §3.1.4: all of one coordinator's logs live on the same f+1
    /// servers, so log recovery is f+1 READs).
    pub fn log_servers(&self, coord: u16) -> NodeList {
        self.replica_walk(LOG_SALT, coord as u64).collect()
    }
}

/// Ring salt separating log-server placement from table placement.
const LOG_SALT: u64 = 0x10_60_0d_0c;

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn replicas_are_distinct_and_sized() {
        let p = Placement::new(nodes(5), 3);
        for b in 0..100 {
            let r = p.replicas(1, b);
            assert_eq!(r.len(), 3);
            let mut d = r.clone();
            d.dedup();
            assert_eq!(d.len(), 3);
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let p1 = Placement::new(nodes(4), 2);
        let p2 = Placement::new(nodes(4), 2);
        for b in 0..50 {
            assert_eq!(p1.replicas(3, b), p2.replicas(3, b));
        }
    }

    #[test]
    fn primaries_spread_across_nodes() {
        let p = Placement::new(nodes(4), 2);
        let mut counts = [0usize; 4];
        for b in 0..1000 {
            counts[p.replicas(1, b)[0].0 as usize] += 1;
        }
        for c in counts {
            assert!(c > 100, "node starved of primaries: {counts:?}");
        }
    }

    #[test]
    fn backup_promotion_preserves_survivors_order() {
        let p = Placement::new(nodes(4), 3);
        for b in 0..200 {
            let full = p.replicas(2, b);
            let dead = full[0];
            let live = p.live_replicas(2, b, &[dead]);
            assert_eq!(live.len(), 2);
            assert_eq!(live[0], full[1], "first backup must be promoted");
            assert_eq!(live[1], full[2]);
        }
    }

    #[test]
    fn unrelated_buckets_keep_placement_when_node_dies() {
        // Consistent hashing: buckets not hosted on the dead node must not move.
        let p = Placement::new(nodes(4), 2);
        for b in 0..200 {
            let full = p.replicas(9, b);
            if !full.contains(&NodeId(2)) {
                assert_eq!(p.live_replicas(9, b, &[NodeId(2)]), full);
            }
        }
    }

    #[test]
    fn log_servers_are_stable_per_coordinator() {
        let p = Placement::new(nodes(5), 3);
        assert_eq!(p.log_servers(7), p.log_servers(7));
        assert_eq!(p.log_servers(7).len(), 3);
    }

    #[test]
    #[should_panic(expected = "replication")]
    fn replication_cannot_exceed_nodes() {
        let _ = Placement::new(nodes(2), 3);
    }

    #[test]
    fn adding_a_node_moves_few_buckets() {
        // The consistent-hashing property the paper relies on (§3.2.5):
        // growing the cluster must not reshuffle existing placements —
        // only ~1/(n+1) of buckets should change their replica set.
        let before = Placement::new(nodes(4), 2);
        let after = Placement::new(nodes(5), 2);
        let buckets: u64 = 2000;
        let limit = (buckets * 6 / 10) as usize;
        let moved = (0..buckets).filter(|&b| before.replicas(1, b) != after.replicas(1, b)).count();
        // Expected ≈ 2 * 1/5 = 40% of replica-lists gain the new node in
        // one of two slots; a full rehash would move ~100%. Assert well
        // under the rehash level and above zero.
        assert!(moved > 0, "the new node must take some load");
        assert!(
            moved < limit,
            "consistent hashing must avoid mass movement: {moved}/{buckets} moved"
        );
        // And untouched buckets keep identical primaries.
        let same_primary = (0..buckets)
            .filter(|&b| before.replicas(1, b)[0] == after.replicas(1, b)[0])
            .count();
        assert!(same_primary > limit, "primaries largely stable: {same_primary}");
    }
}
