//! # dkvs — disaggregated key-value-store substrate
//!
//! The memory-side data layout and compute-side addressing logic for a
//! DKVS in the style of FORD (paper §2.1, §2.3): the dataset lives
//! passively in the registered memory of the memory servers, organized as
//! slotted hash-table segments, and is only ever touched through one-sided
//! verbs issued by compute servers.
//!
//! Layout decisions that the transactional protocols rely on:
//!
//! * **Object slot** = `[key][lock][version][value…]`, all 8-byte words.
//!   Lock and version are adjacent so a single READ fetches both (the
//!   covert-locks fix of paper §5.1 requires checking them together), and
//!   one READ starting at the lock word fetches lock+version+value.
//! * **Lock word** carries the owner's 16-bit coordinator-id under PILL
//!   (paper §3.1.2); plain FORD mode uses the bare lock bit.
//! * **Version word** is monotonic per object with a tombstone bit for
//!   deletes; `0` means never-written.
//! * **Bucket-granular placement**: all keys of one bucket share the same
//!   f+1 replica set (consistent hashing over bucket ids), so a slot index
//!   chosen on the primary is valid on every backup.
//! * **Per-coordinator log regions** of 32 KiB live on f+1 *designated*
//!   log servers per coordinator (the coordinator-log technique of
//!   Stamos & Cristian adopted in paper §3.1.4), so log recovery is always
//!   f+1 READs.

pub mod cluster;
pub mod hash;
pub mod layout;
pub mod log;
pub mod placement;
pub mod table;

pub use cluster::{ClusterMap, ClusterMapBuilder};
pub use layout::{LockWord, SlotImage, SlotLayout, VersionWord, COORD_ID_BITS, MAX_COORDINATORS};
pub use log::{
    entry_encoded_size, log_lane_offset, LogEntry, LogRegion, UndoRecord, LOG_LANE_BYTES,
    LOG_REGION_BYTES, TXN_LOG_LANES,
};
pub use placement::{NodeList, NodeSet, Placement};
pub use table::{BucketRef, SlotRef, TableDef, TableId};
