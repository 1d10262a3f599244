//! Memory-server failure handling (paper §3.2.5).
//!
//! Memory failures — unlike compute failures — briefly stop the world:
//! every compute server must switch to the new replica configuration
//! atomically. Steps:
//!
//! 1. Notify all compute servers (world pause; in-flight transactions
//!    resolve themselves: a transaction that updated all *live* replicas
//!    commits, the rest abort — the apply phase of the commit pipeline:
//!    `crate::commit`, the `Apply` settle).
//! 2. Each compute server deterministically recomputes primaries from
//!    the dead-node set via consistent hashing (backup promotion,
//!    [`dkvs::Placement::live_replicas`]).
//! 3. Resume. No log recovery runs if all compute servers are alive.
//!
//! More than f failures lose buckets; [`MemoryFailureHandler::rereplicate`]
//! rebuilds a revived/replacement node from the surviving replicas
//! ("Pandora adds new memory servers if there are more than f replica
//! failures. For this, we stop the DKVS, re-replicate all the partitions,
//! and then resume").

use std::sync::Arc;
use std::time::{Duration, Instant};

use dkvs::TableId;
use rdma_sim::{FaultInjector, NodeId, QueuePair, RdmaResult};

use crate::context::SharedContext;

/// Outcome of a memory-failure reconfiguration.
#[derive(Debug, Clone)]
pub struct MemFailReport {
    pub node: NodeId,
    /// Buckets whose primary moved (promotion count).
    pub promoted_buckets: u64,
    /// Buckets left with zero live replicas (> f failures; data loss
    /// until re-replication).
    pub lost_buckets: u64,
    pub total: Duration,
}

/// Handles memory-server failures and re-replication.
pub struct MemoryFailureHandler {
    ctx: Arc<SharedContext>,
    qps: Vec<QueuePair>,
}

impl MemoryFailureHandler {
    pub fn new(ctx: Arc<SharedContext>) -> RdmaResult<MemoryFailureHandler> {
        let endpoint = ctx.fabric.register_endpoint();
        let injector = FaultInjector::new();
        let mut qps = Vec::new();
        for n in ctx.fabric.node_ids() {
            qps.push(ctx.fabric.qp(endpoint, n, Arc::clone(&injector))?);
        }
        Ok(MemoryFailureHandler { ctx, qps })
    }

    fn qp(&self, node: NodeId) -> &QueuePair {
        &self.qps[node.0 as usize]
    }

    /// Reconfigure after `node` died: pause, publish the new dead-node
    /// set, resume. Counting promoted/lost buckets doubles as a sanity
    /// audit of the placement function.
    pub fn handle_failure(&self, node: NodeId) -> MemFailReport {
        let t0 = Instant::now();
        let quiesced = self.ctx.pause.pause_and_quiesce(Duration::from_secs(60));
        debug_assert!(quiesced, "a live coordinator failed to quiesce");

        let before_dead = self.ctx.dead_nodes();
        self.ctx.mark_node_dead(node);
        let after_dead = self.ctx.dead_nodes();

        let mut promoted = 0u64;
        let mut lost = 0u64;
        for def in self.ctx.map.tables() {
            for bucket in 0..def.buckets {
                let old = self.ctx.map.live_replicas(def.id, bucket, &before_dead);
                let new = self.ctx.map.live_replicas(def.id, bucket, &after_dead);
                match (old.first(), new.first()) {
                    (Some(o), Some(n)) if o != n => promoted += 1,
                    (_, None) => lost += 1,
                    _ => {}
                }
            }
        }
        // Promotion lands on the chaos track so a fail-over timeline
        // shows *when* the placement flipped relative to any in-flight
        // recovery (detail: promoted-bucket count over the node id).
        if let Some(rec) = self.ctx.flight() {
            rec.chaos_instant("mem-fail-promotion", (promoted << 16) | node.0 as u64);
        }
        self.ctx.pause.resume();
        MemFailReport { node, promoted_buckets: promoted, lost_buckets: lost, total: t0.elapsed() }
    }

    /// Rebuild `target` (a revived or replacement node standing in for a
    /// lost one) by copying every bucket it hosts from the current acting
    /// primary, then return it to service. Runs under a world pause.
    /// Returns the number of buckets copied.
    pub fn rereplicate(&self, target: NodeId) -> RdmaResult<u64> {
        let quiesced = self.ctx.pause.pause_and_quiesce(Duration::from_secs(60));
        debug_assert!(quiesced, "a live coordinator failed to quiesce");
        let dead = self.ctx.dead_nodes();
        let mut copied = 0u64;
        let table_ids: Vec<TableId> = self.ctx.map.tables().map(|t| t.id).collect();
        for table in table_ids {
            let def = self.ctx.map.table(table).clone();
            let mut buf = vec![0u8; def.bucket_bytes() as usize];
            for bucket in 0..def.buckets {
                // Only buckets this node replicates.
                if !self.ctx.map.replicas(table, bucket).contains(&target) {
                    continue;
                }
                let Some(&src) =
                    self.ctx.map.live_replicas(table, bucket, &dead).iter().find(|&&n| n != target)
                else {
                    continue; // nothing left to copy from
                };
                let src_addr = self.ctx.map.bucket_addr(src, table, bucket);
                let dst_addr = self.ctx.map.bucket_addr(target, table, bucket);
                self.qp(src).read(src_addr, &mut buf)?;
                self.qp(target).write(dst_addr, &buf)?;
                copied += 1;
            }
        }
        // A revived node may resurrect ancient log/intent entries from
        // before its death; truncate every slot so recovery never reads
        // stale state from it.
        for slot in 0..self.ctx.map.max_coord_slots() {
            let coord = (slot % u16::MAX as u32) as u16;
            let log = self.ctx.map.log_region(target, coord);
            self.qp(target).write_u64(log.base, 0)?;
            let intents = self.ctx.map.intent_region(target, coord);
            self.qp(target).write_u64(intents.base, 0)?;
        }
        self.ctx.mark_node_live(target);
        self.ctx.pause.resume();
        Ok(copied)
    }
}
