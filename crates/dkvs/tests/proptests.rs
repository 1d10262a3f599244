//! Property-based tests for the dkvs substrate: log-entry codec
//! robustness, placement invariants, and layout arithmetic.

use dkvs::{LogEntry, NodeSet, Placement, TableDef, TableId, UndoRecord, VersionWord};
use proptest::prelude::*;
use rdma_sim::NodeId;

fn arb_record() -> impl Strategy<Value = UndoRecord> {
    (0u16..8, any::<u64>(), 0u64..1 << 20, 0u32..16, 0u64..1 << 40, 0u64..1 << 40, 0usize..16)
        .prop_map(|(table, key, bucket, slot, oldv, newv, words)| UndoRecord {
            table: TableId(table),
            key,
            bucket,
            slot,
            old_version: VersionWord(oldv),
            new_version: VersionWord(newv),
            old_value: vec![0xAB; words * 8],
        })
}

fn arb_entry() -> impl Strategy<Value = LogEntry> {
    (any::<u64>(), any::<u16>(), proptest::collection::vec(arb_record(), 0..12))
        .prop_map(|(txn_id, coord, writes)| LogEntry { txn_id, coord, writes })
}

proptest! {
    #[test]
    fn log_entry_roundtrips(entry in arb_entry()) {
        let buf = entry.encode();
        prop_assert_eq!(buf.len() % 8, 0);
        let decoded = LogEntry::decode(&buf).expect("self-encoded entry decodes");
        prop_assert_eq!(decoded, entry);
    }

    #[test]
    fn log_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary bytes must never panic; at worst they decode to a
        // syntactically valid entry, and the checksum makes even that
        // astronomically unlikely.
        let _ = LogEntry::decode(&bytes);
    }

    #[test]
    fn log_single_bitflip_is_rejected(entry in arb_entry(), flip_byte in 8usize..128, flip_bit in 0u8..8) {
        let mut buf = entry.encode();
        // Skip the state word (flipping state→0 is "truncated", also None,
        // but flipping other state bits could still decode — restrict to
        // the checksummed span).
        if flip_byte < buf.len() - 8 {
            buf[flip_byte] ^= 1 << flip_bit;
            prop_assert_eq!(LogEntry::decode(&buf), None);
        }
    }

    #[test]
    fn placement_replicas_distinct_and_stable(
        nodes in 1u16..12,
        replication in 1usize..4,
        salt in any::<u64>(),
        bucket in any::<u64>(),
    ) {
        let replication = replication.min(nodes as usize);
        let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        let p = Placement::new(ids, replication);
        let a = p.replicas(salt, bucket);
        let b = p.replicas(salt, bucket);
        prop_assert_eq!(&a, &b, "placement must be deterministic");
        prop_assert_eq!(a.len(), replication);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), replication, "replicas must be distinct");
    }

    #[test]
    fn placement_promotion_is_suffix_stable(
        nodes in 2u16..10,
        salt in any::<u64>(),
        bucket in any::<u64>(),
        dead_idx in 0u16..10,
    ) {
        let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        let replication = 2usize.min(nodes as usize);
        let p = Placement::new(ids, replication);
        let full = p.replicas(salt, bucket);
        let dead = NodeId(dead_idx % nodes);
        let live = p.live_replicas(salt, bucket, &[dead]);
        // Survivors keep their relative order (backup promotion).
        let expected: Vec<NodeId> = full.iter().copied().filter(|&n| n != dead).collect();
        prop_assert_eq!(live, expected);
    }

    #[test]
    fn primary_is_the_head_of_live_replicas(
        nodes in 1u16..12,
        replication in 1usize..4,
        salt in any::<u64>(),
        bucket in any::<u64>(),
        dead_bits in any::<u64>(),
        kill_replicas in any::<bool>(),
    ) {
        let replication = replication.min(nodes as usize);
        let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        let p = Placement::new(ids, replication);
        // Any subset of the universe — or, half the time, one that
        // covers the bucket's whole replica list (the all-dead case).
        let mut dead = NodeSet::from_bits(dead_bits & ((1u64 << nodes) - 1));
        if kill_replicas {
            let replicas = p.replicas(salt, bucket);
            let bits = replicas.iter().fold(dead.bits(), |b, &n| b | NodeSet::only(n).bits());
            dead = NodeSet::from_bits(bits);
        }
        let dead_list: Vec<NodeId> = dead.iter().collect();
        let live = p.live_replicas(salt, bucket, &dead_list);
        prop_assert_eq!(p.primary(salt, bucket, dead), live.first().copied());
        if kill_replicas {
            prop_assert_eq!(p.primary(salt, bucket, dead), None);
        }
        prop_assert_eq!(
            p.replica_walk(salt, bucket).collect::<Vec<_>>(),
            p.replicas(salt, bucket)
        );
    }

    #[test]
    fn slot_offsets_never_overlap(
        value_len in 1usize..700,
        buckets in 1u64..64,
        slots in 1u32..16,
        b1 in 0u64..64,
        s1 in 0u32..16,
        b2 in 0u64..64,
        s2 in 0u32..16,
    ) {
        let b1 = b1 % buckets;
        let b2 = b2 % buckets;
        let s1 = s1 % slots;
        let s2 = s2 % slots;
        let def = TableDef::new(0, "t", value_len, buckets, slots);
        let o1 = def.slot_offset(b1, s1);
        let o2 = def.slot_offset(b2, s2);
        if (b1, s1) != (b2, s2) {
            let sz = def.layout().slot_bytes();
            prop_assert!(o1.abs_diff(o2) >= sz, "slots overlap: {o1} vs {o2} (size {sz})");
        } else {
            prop_assert_eq!(o1, o2);
        }
        prop_assert!(o1 + def.layout().slot_bytes() <= def.segment_bytes());
    }

    #[test]
    fn bucket_for_in_range(value_len in 1usize..64, buckets_pow in 1u32..16, key in any::<u64>()) {
        let buckets = 1u64 << buckets_pow;
        let def = TableDef::new(3, "t", value_len, buckets, 8);
        prop_assert!(def.bucket_for(key) < buckets);
    }

    #[test]
    fn version_word_lifecycle_monotonic(counter in 0u64..1 << 40, tomb in any::<bool>()) {
        let v = VersionWord::new(counter, tomb);
        prop_assert_eq!(v.counter(), counter);
        prop_assert_eq!(v.is_tombstone(), tomb);
        let w = v.next_write();
        prop_assert!(w.counter() > v.counter());
        prop_assert!(w.is_present());
        let d = v.next_delete();
        prop_assert!(d.is_tombstone());
        prop_assert!(!d.is_present());
    }
}
