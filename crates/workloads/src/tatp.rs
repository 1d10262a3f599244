//! TATP (Telecom Application Transaction Processing): 4 tables, 48-byte
//! values, 80 % read-only transactions (paper §4.1). The standard mix:
//! GetSubscriberData 35 %, GetNewDestination 10 %, GetAccessData 35 %,
//! UpdateSubscriberData 2 %, UpdateLocation 14 %, InsertCallForwarding
//! 2 %, DeleteCallForwarding 2 %.

use dkvs::{TableDef, TableId};
use pandora::{SimCluster, TxnRequest};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::{decode_field, encode_value, Workload};

pub const SUBSCRIBER: TableId = TableId(0);
pub const ACCESS_INFO: TableId = TableId(1);
pub const SPECIAL_FACILITY: TableId = TableId(2);
pub const CALL_FORWARDING: TableId = TableId(3);
pub const TATP_VALUE_LEN: usize = 48;

/// TATP configuration.
#[derive(Debug, Clone)]
pub struct Tatp {
    pub subscribers: u64,
}

impl Tatp {
    pub fn new(subscribers: u64) -> Tatp {
        Tatp { subscribers }
    }

    /// access_info key: one of 2 ai-types per subscriber.
    fn ai_key(sub: u64, ai_type: u64) -> u64 {
        sub * 4 + ai_type
    }

    /// special_facility key: one of 2 sf-types per subscriber.
    fn sf_key(sub: u64, sf_type: u64) -> u64 {
        sub * 4 + sf_type
    }

    /// call_forwarding key: (subscriber, sf-type, start-time 0..3).
    fn cf_key(sub: u64, sf_type: u64, start: u64) -> u64 {
        sub * 16 + sf_type * 4 + start
    }
}

impl Workload for Tatp {
    fn name(&self) -> &'static str {
        "TATP"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![
            TableDef::sized_for(0, "subscriber", TATP_VALUE_LEN, self.subscribers),
            TableDef::sized_for(1, "access_info", TATP_VALUE_LEN, self.subscribers * 2),
            TableDef::sized_for(2, "special_facility", TATP_VALUE_LEN, self.subscribers * 2),
            // Sparse, insert/delete-churned: size for the worst case.
            TableDef::sized_for(3, "call_forwarding", TATP_VALUE_LEN, self.subscribers * 8),
        ]
    }

    fn load(&self, cluster: &SimCluster) {
        cluster
            .bulk_load(
                SUBSCRIBER,
                (0..self.subscribers).map(|s| (s, encode_value(TATP_VALUE_LEN, s))),
            )
            .expect("load subscriber");
        cluster
            .bulk_load(
                ACCESS_INFO,
                (0..self.subscribers).flat_map(|s| {
                    (0..2).map(move |t| (Self::ai_key(s, t), encode_value(TATP_VALUE_LEN, s)))
                }),
            )
            .expect("load access_info");
        cluster
            .bulk_load(
                SPECIAL_FACILITY,
                (0..self.subscribers).flat_map(|s| {
                    (0..2).map(move |t| (Self::sf_key(s, t), encode_value(TATP_VALUE_LEN, s)))
                }),
            )
            .expect("load special_facility");
        // Half the subscribers start with one call-forwarding record.
        cluster
            .bulk_load(
                CALL_FORWARDING,
                (0..self.subscribers / 2)
                    .map(|s| (Self::cf_key(s, 0, 0), encode_value(TATP_VALUE_LEN, s))),
            )
            .expect("load call_forwarding");
    }

    /// Every draw of the mix declares: the keys depend on the draw
    /// alone, so [`Workload::execute`] is the default. Standard TATP:
    /// inserting an existing call-forwarding row, or deleting an absent
    /// one, fails the transaction (an abort the caller counts).
    /// UpdateSubscriberData's special-facility `Update` would abort on an
    /// absent row — both rows of every subscriber are loaded and never
    /// deleted.
    fn request(&self, rng: &mut StdRng) -> Option<TxnRequest> {
        let sub = rng.random_range(0..self.subscribers);
        let op = rng.random_range(0..100u32);
        let bump = |old: &[u8]| encode_value(TATP_VALUE_LEN, decode_field(old) + 1);
        let req = TxnRequest::new();
        Some(match op {
            // GetSubscriberData (35%).
            0..=34 => req.read(SUBSCRIBER, sub),
            // GetNewDestination (10%): sf + cf reads.
            35..=44 => {
                let sf_type = rng.random_range(0..2u64);
                req.read(SPECIAL_FACILITY, Self::sf_key(sub, sf_type))
                    .read(CALL_FORWARDING, Self::cf_key(sub, sf_type, 0))
                    .read(CALL_FORWARDING, Self::cf_key(sub, sf_type, 1))
            }
            // GetAccessData (35%).
            45..=79 => req.read(ACCESS_INFO, Self::ai_key(sub, rng.random_range(0..2u64))),
            // UpdateSubscriberData (2%): subscriber bit + sf data.
            80..=81 => {
                let sf = Self::sf_key(sub, rng.random_range(0..2u64));
                req.update(SUBSCRIBER, sub, bump).update(SPECIAL_FACILITY, sf, bump)
            }
            // UpdateLocation (14%).
            82..=95 => req.update(SUBSCRIBER, sub, bump),
            // InsertCallForwarding (2%).
            96..=97 => {
                let key = Self::cf_key(sub, rng.random_range(0..2u64), rng.random_range(0..4u64));
                req.read(SUBSCRIBER, sub).insert(
                    CALL_FORWARDING,
                    key,
                    encode_value(TATP_VALUE_LEN, sub),
                )
            }
            // DeleteCallForwarding (2%).
            _ => {
                let key = Self::cf_key(sub, rng.random_range(0..2u64), rng.random_range(0..4u64));
                req.delete(CALL_FORWARDING, key)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora::{ProtocolKind, TxnError};
    use rand::SeedableRng;

    #[test]
    fn tatp_mix_runs() {
        let tatp = Tatp::new(64);
        let b = crate::with_tables(
            SimCluster::builder(ProtocolKind::Pandora).memory_nodes(2).replication(2),
            &tatp,
        );
        let cluster = b.build().unwrap();
        tatp.load(&cluster);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut committed = 0;
        let mut aborted = 0;
        for _ in 0..300 {
            match tatp.execute(&mut co, &mut rng) {
                Ok(()) => committed += 1,
                Err(TxnError::Aborted(_)) => aborted += 1,
                Err(e) => panic!("unexpected: {e:?}"),
            }
        }
        assert!(committed > 200, "TATP is read-mostly; most txns commit ({committed})");
        // Insert/delete of CF rows can abort legitimately.
        assert!(aborted < 100);
    }

    #[test]
    fn tatp_key_encodings_do_not_collide() {
        let mut keys = std::collections::HashSet::new();
        for sub in 0..10 {
            for t in 0..2 {
                assert!(keys.insert(("ai", Tatp::ai_key(sub, t))));
                assert!(keys.insert(("sf", Tatp::sf_key(sub, t))));
                for s in 0..4 {
                    assert!(keys.insert(("cf", Tatp::cf_key(sub, t, s))));
                }
            }
        }
    }
}
