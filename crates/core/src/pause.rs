//! Stop-the-world control for the Baseline and Traditional recovery
//! schemes (and for memory-server failures, paper §3.2.5, which pause
//! every protocol).
//!
//! Pandora's compute-failure recovery never uses this — that is the
//! paper's headline: live coordinators keep committing while a failed
//! peer is recovered (fail-over throughput, §6.3).

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Per-coordinator gate registered with the [`WorldPause`]. Its owner
/// stores to `in_txn` twice per transaction, so each gate is aligned to
/// a cache line pair of its own: gates are allocated back to back at
/// connect time and would otherwise share lines across coordinators.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CoordGate {
    /// True while the coordinator is inside a transaction.
    in_txn: AtomicBool,
    /// False once the coordinator crashed or deregistered — the pauser
    /// must not wait for dead coordinators to quiesce.
    alive: AtomicBool,
}

impl CoordGate {
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub fn mark_dead(&self) {
        self.alive.store(false, Ordering::Release);
        self.in_txn.store(false, Ordering::Release);
    }

    pub fn in_txn(&self) -> bool {
        self.in_txn.load(Ordering::SeqCst)
    }
}

/// The stop-the-world controller.
///
/// Concurrency notes (review-hardened):
/// * The pause/enter handshake is a Dekker pattern (each side stores its
///   flag then loads the other's); both loads may see stale values under
///   acquire/release, so the four handshake accesses use `SeqCst`.
/// * `pausers` is a count, not a bool: two overlapping stop-the-world
///   operations (e.g. a memory-failure reconfiguration racing a Baseline
///   recovery) must not release each other's pause early.
pub struct WorldPause {
    pausers: AtomicU32,
    gates: Mutex<Vec<Arc<CoordGate>>>,
}

impl Default for WorldPause {
    fn default() -> Self {
        Self::new()
    }
}

impl WorldPause {
    pub fn new() -> WorldPause {
        WorldPause { pausers: AtomicU32::new(0), gates: Mutex::new(Vec::new()) }
    }

    /// Register a coordinator; it must call [`WorldPause::enter_txn`] /
    /// [`WorldPause::exit_txn`] around every transaction.
    pub fn register(&self) -> Arc<CoordGate> {
        let gate =
            Arc::new(CoordGate { in_txn: AtomicBool::new(false), alive: AtomicBool::new(true) });
        self.gates.lock().push(Arc::clone(&gate));
        gate
    }

    /// Fast-path check used inside retry loops: true = a pause was
    /// requested and the caller must abort its transaction.
    #[inline]
    pub fn pause_requested(&self) -> bool {
        self.pausers.load(Ordering::SeqCst) > 0
    }

    /// Block (outside any transaction) while the world is paused, then
    /// mark the gate in-txn. Returns immediately when unpaused.
    pub fn enter_txn(&self, gate: &CoordGate) {
        loop {
            while self.pause_requested() {
                std::thread::sleep(Duration::from_micros(50));
            }
            // Dekker handshake: SeqCst store of our flag, SeqCst load of
            // the pauser's — at least one side must see the other.
            gate.in_txn.store(true, Ordering::SeqCst);
            if self.pause_requested() {
                gate.in_txn.store(false, Ordering::SeqCst);
                continue;
            }
            return;
        }
    }

    /// Mark the gate out-of-txn (after commit, abort, or crash cleanup).
    pub fn exit_txn(&self, gate: &CoordGate) {
        gate.in_txn.store(false, Ordering::SeqCst);
    }

    /// Request a world pause and wait until every *live* registered
    /// coordinator has quiesced (left its transaction). Returns false on
    /// timeout (a coordinator is stuck — callers treat it as crashed).
    pub fn pause_and_quiesce(&self, timeout: Duration) -> bool {
        self.pausers.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        loop {
            let all_quiet = {
                let gates = self.gates.lock();
                gates.iter().all(|g| !g.is_alive() || !g.in_txn())
            };
            if all_quiet {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Release this caller's pause (the world resumes when the last
    /// concurrent pauser resumes).
    pub fn resume(&self) {
        let prev = self.pausers.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "resume without a matching pause");
    }

    /// Drop gates of dead coordinators (housekeeping).
    pub fn gc(&self) {
        self.gates.lock().retain(|g| g.is_alive());
    }

    /// Number of live registered coordinators.
    pub fn live_count(&self) -> usize {
        self.gates.lock().iter().filter(|g| g.is_alive()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pause_waits_for_quiesce() {
        let p = Arc::new(WorldPause::new());
        let gate = p.register();
        p.enter_txn(&gate);

        let p2 = Arc::clone(&p);
        let handle = std::thread::spawn(move || p2.pause_and_quiesce(Duration::from_secs(2)));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished(), "pauser must wait while a txn is open");
        p.exit_txn(&gate);
        assert!(handle.join().unwrap());
        p.resume();
    }

    #[test]
    fn dead_coordinators_do_not_block_pause() {
        let p = WorldPause::new();
        let gate = p.register();
        p.enter_txn(&gate);
        gate.mark_dead();
        assert!(p.pause_and_quiesce(Duration::from_millis(100)));
        p.resume();
    }

    #[test]
    fn quiesce_times_out_on_stuck_coordinator() {
        let p = WorldPause::new();
        let gate = p.register();
        p.enter_txn(&gate);
        assert!(!p.pause_and_quiesce(Duration::from_millis(50)));
        p.resume();
    }

    #[test]
    fn enter_txn_blocks_while_paused() {
        let p = Arc::new(WorldPause::new());
        let gate = p.register();
        assert!(p.pause_and_quiesce(Duration::from_millis(50)));

        let p2 = Arc::clone(&p);
        let g2 = Arc::clone(&gate);
        let handle = std::thread::spawn(move || {
            p2.enter_txn(&g2);
            true
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.is_finished(), "enter_txn must block during pause");
        p.resume();
        assert!(handle.join().unwrap());
        assert!(gate.in_txn());
    }

    #[test]
    fn gates_do_not_share_cache_lines() {
        assert!(std::mem::align_of::<CoordGate>() >= 128);
    }

    #[test]
    fn gc_removes_dead_gates() {
        let p = WorldPause::new();
        let g1 = p.register();
        let _g2 = p.register();
        g1.mark_dead();
        assert_eq!(p.live_count(), 1);
        p.gc();
        assert_eq!(p.live_count(), 1);
    }
}
