use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::error::{RdmaError, RdmaResult};
use crate::fabric::NodeId;

/// Maximum number of compute endpoints a node tracks for revocation.
/// Revocation checks must be O(1) and lock-free on the data path.
pub(crate) const MAX_ENDPOINTS: usize = 4096;

/// A memory server: a large, passively hosted byte region plus the minimal
/// state its wimpy core manages (allocation cursor, revocation bitset,
/// liveness flag).
///
/// Storage is a slab of `AtomicU64` words so that concurrent one-sided
/// access from many compute threads is defined behaviour in Rust while
/// still allowing the torn multi-word reads real RDMA exhibits. All
/// addresses handed out by [`MemoryNode::alloc`] are 8-byte aligned, and
/// verbs enforce 8-byte alignment.
pub struct MemoryNode {
    id: NodeId,
    words: Box<[AtomicU64]>,
    capacity: u64,
    alive: AtomicBool,
    alloc_next: AtomicU64,
    /// One bit per endpoint id; set bit = revoked.
    revoked: Box<[AtomicU64]>,
}

impl MemoryNode {
    /// Create a node with `capacity_bytes` of registered memory
    /// (rounded up to a multiple of 8).
    pub fn new(id: NodeId, capacity_bytes: u64) -> Self {
        let n_words = capacity_bytes.div_ceil(8) as usize;
        // Allocate zeroed plain words (calloc-backed, O(1) for fresh pages)
        // and reinterpret as atomics: `AtomicU64` is documented to have
        // "the same size and bit validity as the underlying integer type".
        let words: Box<[AtomicU64]> = {
            let plain: Box<[u64]> = vec![0u64; n_words].into_boxed_slice();
            let raw = Box::into_raw(plain);
            // SAFETY: identical layout (size/align/bit-validity) of u64 and
            // AtomicU64; ownership transferred straight back into a Box.
            unsafe { Box::from_raw(raw as *mut [AtomicU64]) }
        };
        let mut revoked = Vec::with_capacity(MAX_ENDPOINTS / 64);
        revoked.resize_with(MAX_ENDPOINTS / 64, || AtomicU64::new(0));
        MemoryNode {
            id,
            words,
            capacity: (n_words as u64) * 8,
            alive: AtomicBool::new(true),
            alloc_next: AtomicU64::new(8), // offset 0 reserved as a null address
            revoked: revoked.into_boxed_slice(),
        }
    }

    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Crash-stop this node. All subsequent verbs fail with `NodeDead`.
    pub fn kill(&self) {
        self.alive.store(false, Ordering::Release);
    }

    /// Revive a previously killed node (memory contents are retained, as
    /// with battery-backed DRAM / NVM; callers that model volatile loss
    /// should allocate a fresh node instead).
    pub fn revive(&self) {
        self.alive.store(true, Ordering::Release);
    }

    /// Active-link termination: drop every future verb from `endpoint`.
    pub fn revoke(&self, endpoint: u32) {
        let idx = endpoint as usize;
        assert!(idx < MAX_ENDPOINTS, "endpoint id out of range");
        self.revoked[idx / 64].fetch_or(1 << (idx % 64), Ordering::AcqRel);
    }

    /// Restore a previously revoked endpoint (used when a falsely-suspected
    /// server rejoins with a fresh coordinator-id).
    pub fn restore(&self, endpoint: u32) {
        let idx = endpoint as usize;
        assert!(idx < MAX_ENDPOINTS, "endpoint id out of range");
        self.revoked[idx / 64].fetch_and(!(1 << (idx % 64)), Ordering::AcqRel);
    }

    #[inline]
    pub(crate) fn is_revoked(&self, endpoint: u32) -> bool {
        let idx = endpoint as usize;
        self.revoked[idx / 64].load(Ordering::Acquire) & (1 << (idx % 64)) != 0
    }

    /// Bump-allocate `len` bytes of registered memory (control path only).
    /// Returns the base offset. There is no free(): memory servers host
    /// long-lived segments sized at setup, like the paper's DKVS.
    pub fn alloc(&self, len: u64) -> RdmaResult<u64> {
        let len = len.div_ceil(8) * 8;
        // CAS loop instead of fetch_add + rollback: a failing allocation
        // racing a succeeding one must not corrupt the bump cursor.
        loop {
            let base = self.alloc_next.load(Ordering::Acquire);
            let end = base.checked_add(len).ok_or_else(|| {
                RdmaError::Control(format!("node {} allocation overflow", self.id.0))
            })?;
            if end > self.capacity {
                return Err(RdmaError::Control(format!(
                    "node {} out of memory: want {len} at {base}, capacity {}",
                    self.id.0, self.capacity
                )));
            }
            if self
                .alloc_next
                .compare_exchange(base, end, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Ok(base);
            }
        }
    }

    #[inline]
    fn check(&self, addr: u64, len: usize) -> RdmaResult<()> {
        if !addr.is_multiple_of(8) || !len.is_multiple_of(8) {
            return Err(RdmaError::Misaligned { addr });
        }
        match addr.checked_add(len as u64) {
            Some(end) if end <= self.capacity => Ok(()),
            _ => Err(RdmaError::OutOfBounds { addr, len, capacity: self.capacity }),
        }
    }

    /// Raw word-wise copy out (data path; called by `QueuePair::read`).
    #[inline]
    pub(crate) fn copy_out(&self, addr: u64, buf: &mut [u8]) -> RdmaResult<()> {
        self.check(addr, buf.len())?;
        let start = (addr / 8) as usize;
        for (i, chunk) in buf.chunks_exact_mut(8).enumerate() {
            let w = self.words[start + i].load(Ordering::Acquire);
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        Ok(())
    }

    /// Raw word-wise copy in without a revocation re-check (unit tests;
    /// the data path uses [`MemoryNode::copy_in_revocable`]).
    #[cfg_attr(not(test), allow(dead_code))]
    #[inline]
    pub(crate) fn copy_in(&self, addr: u64, data: &[u8]) -> RdmaResult<()> {
        self.check(addr, data.len())?;
        let start = (addr / 8) as usize;
        for (i, chunk) in data.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.words[start + i].store(w, Ordering::Release);
        }
        Ok(())
    }

    /// Like [`MemoryNode::copy_in`] but re-checks revocation before every
    /// word, mirroring NIC-level active-link termination killing an
    /// in-flight DMA: once `endpoint` is revoked, the remaining words of
    /// a long WRITE never land (the recovery protocol relies on a fenced
    /// compute server being unable to keep mutating memory mid-verb).
    ///
    /// The words are `Release` stores, which is all any reader pairs
    /// with:
    /// * *Value before version.* An apply writes the value words, then
    ///   the version word; readers load with `Acquire` ([`copy_out`],
    ///   and the atomics are `AcqRel`). Release keeps the stores in
    ///   program order, so a reader that sees the new version sees the
    ///   value.
    /// * *Revocation.* `revoke` is an `AcqRel` read-modify-write and the
    ///   check below an `Acquire` load; neither is `SeqCst`, so a
    ///   `SeqCst` store orders the word against nothing that concerns
    ///   revocation. The race is check-then-store: a revocation landing
    ///   between an iteration's check and its store lets that word
    ///   through under any store ordering, and the *next* check — an
    ///   acquire load, never reordered before this one — stops the copy.
    ///   The guarantee is therefore the same as before: once the writer
    ///   has observed the revocation (`AccessRevoked` from here or from
    ///   a later verb's gate) its memory is final, and whatever hands
    ///   that observation to an inspecting thread (a join, a channel,
    ///   the crashed flag) publishes every word stored before it.
    ///   `revocation_stops_a_streaming_writer` in `qp.rs` races this.
    ///
    /// [`copy_out`]: MemoryNode::copy_out
    #[inline]
    pub(crate) fn copy_in_revocable(
        &self,
        addr: u64,
        data: &[u8],
        endpoint: u32,
    ) -> RdmaResult<()> {
        self.check(addr, data.len())?;
        let start = (addr / 8) as usize;
        for (i, chunk) in data.chunks_exact(8).enumerate() {
            if self.is_revoked(endpoint) {
                return Err(RdmaError::AccessRevoked);
            }
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.words[start + i].store(w, Ordering::Release);
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn cas(&self, addr: u64, expected: u64, new: u64) -> RdmaResult<u64> {
        self.check(addr, 8)?;
        let w = &self.words[(addr / 8) as usize];
        match w.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
            Ok(prev) => Ok(prev),
            Err(prev) => Ok(prev),
        }
    }

    #[inline]
    pub(crate) fn faa(&self, addr: u64, add: u64) -> RdmaResult<u64> {
        self.check(addr, 8)?;
        Ok(self.words[(addr / 8) as usize].fetch_add(add, Ordering::AcqRel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> MemoryNode {
        MemoryNode::new(NodeId(0), 1024)
    }

    #[test]
    fn alloc_is_bump_and_aligned() {
        let n = node();
        let a = n.alloc(3).unwrap();
        let b = n.alloc(16).unwrap();
        assert_eq!(a % 8, 0);
        assert_eq!(b, a + 8); // 3 rounded up to 8
    }

    #[test]
    fn alloc_exhaustion_is_reported() {
        let n = node();
        assert!(n.alloc(2048).is_err());
        // And the cursor was rolled back so smaller allocations still fit.
        assert!(n.alloc(64).is_ok());
    }

    #[test]
    fn copy_roundtrip() {
        let n = node();
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        n.copy_in(64, &data).unwrap();
        let mut out = [0u8; 16];
        n.copy_out(64, &mut out).unwrap();
        assert_eq!(data, out);
    }

    #[test]
    fn misaligned_access_rejected() {
        let n = node();
        let mut buf = [0u8; 8];
        assert_eq!(n.copy_out(4, &mut buf), Err(RdmaError::Misaligned { addr: 4 }));
        let data = [0u8; 4];
        assert!(matches!(n.copy_in(8, &data), Err(RdmaError::Misaligned { .. })));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let n = node();
        let mut buf = [0u8; 16];
        assert!(matches!(n.copy_out(1016, &mut buf), Err(RdmaError::OutOfBounds { .. })));
    }

    #[test]
    fn cas_success_and_failure_return_previous_value() {
        let n = node();
        n.copy_in(0, &42u64.to_le_bytes()).unwrap();
        assert_eq!(n.cas(0, 42, 7).unwrap(), 42); // success: returns old
        assert_eq!(n.cas(0, 42, 9).unwrap(), 7); // failure: returns current
        let mut buf = [0u8; 8];
        n.copy_out(0, &mut buf).unwrap();
        assert_eq!(u64::from_le_bytes(buf), 7);
    }

    #[test]
    fn faa_returns_previous() {
        let n = node();
        assert_eq!(n.faa(8, 5).unwrap(), 0);
        assert_eq!(n.faa(8, 5).unwrap(), 5);
    }

    #[test]
    fn revoke_and_restore() {
        let n = node();
        assert!(!n.is_revoked(17));
        n.revoke(17);
        assert!(n.is_revoked(17));
        assert!(!n.is_revoked(18));
        n.restore(17);
        assert!(!n.is_revoked(17));
    }

    #[test]
    fn kill_and_revive() {
        let n = node();
        assert!(n.is_alive());
        n.kill();
        assert!(!n.is_alive());
        n.revive();
        assert!(n.is_alive());
    }
}
