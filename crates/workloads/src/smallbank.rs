//! SmallBank: 2 tables (savings, checking), 16-byte values, ~85 % write
//! transactions (paper §4.1). The six standard transaction types with
//! the H-Store mix: Amalgamate 15 %, Balance 15 %, DepositChecking 15 %,
//! SendPayment 25 %, TransactSavings 15 %, WriteCheck 15 %.

use dkvs::{TableDef, TableId};
use pandora::{Access, Coordinator, SimCluster, Txn, TxnError};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::{decode_field, encode_value, Workload};

pub const SAVINGS: TableId = TableId(0);
pub const CHECKING: TableId = TableId(1);
pub const SB_VALUE_LEN: usize = 16;

const INITIAL_BALANCE: u64 = 10_000;

/// SmallBank configuration.
#[derive(Debug, Clone)]
pub struct SmallBank {
    pub accounts: u64,
    /// Fraction of accesses hitting the hot 10 % of accounts (standard
    /// SmallBank skew; 0.0 = uniform).
    pub hotspot_prob: f64,
}

impl SmallBank {
    pub fn new(accounts: u64) -> SmallBank {
        SmallBank { accounts, hotspot_prob: 0.25 }
    }

    fn pick_account(&self, rng: &mut StdRng) -> u64 {
        if self.hotspot_prob > 0.0 && rng.random_bool(self.hotspot_prob) {
            rng.random_range(0..(self.accounts / 10).max(1))
        } else {
            rng.random_range(0..self.accounts)
        }
    }

    /// The balances of `rows`, fetched in one round trip (`ForUpdate`
    /// rows locked for the `set_balance` that follows).
    fn balances<const N: usize>(
        txn: &mut Txn<'_>,
        rows: [(TableId, u64, Access); N],
    ) -> Result<[u64; N], TxnError> {
        let values = txn.fetch(&rows)?;
        Ok(std::array::from_fn(|i| values[i].as_deref().map(decode_field).unwrap_or(0)))
    }

    fn set_balance(
        txn: &mut Txn<'_>,
        table: TableId,
        acct: u64,
        balance: u64,
    ) -> Result<(), TxnError> {
        txn.write(table, acct, &encode_value(SB_VALUE_LEN, balance))
    }
}

impl Workload for SmallBank {
    fn name(&self) -> &'static str {
        "SmallBank"
    }

    fn tables(&self) -> Vec<TableDef> {
        vec![
            TableDef::sized_for(0, "savings", SB_VALUE_LEN, self.accounts),
            TableDef::sized_for(1, "checking", SB_VALUE_LEN, self.accounts),
        ]
    }

    fn load(&self, cluster: &SimCluster) {
        for table in [SAVINGS, CHECKING] {
            cluster
                .bulk_load(
                    table,
                    (0..self.accounts).map(|a| (a, encode_value(SB_VALUE_LEN, INITIAL_BALANCE))),
                )
                .expect("load smallbank");
        }
    }

    fn execute(&self, co: &mut Coordinator, rng: &mut StdRng) -> Result<(), TxnError> {
        use Access::{ForUpdate, Read};
        let a = self.pick_account(rng);
        let mut b = self.pick_account(rng);
        if b == a {
            b = (b + 1) % self.accounts;
        }
        let op = rng.random_range(0..100u32);
        let mut txn = co.begin();
        match op {
            // Amalgamate (15%): move all of A's funds into B's checking.
            0..=14 => {
                let rows =
                    [(SAVINGS, a, ForUpdate), (CHECKING, a, ForUpdate), (CHECKING, b, ForUpdate)];
                let [sav, chk, dst] = Self::balances(&mut txn, rows)?;
                Self::set_balance(&mut txn, SAVINGS, a, 0)?;
                Self::set_balance(&mut txn, CHECKING, a, 0)?;
                Self::set_balance(&mut txn, CHECKING, b, dst + sav + chk)?;
            }
            // Balance (15%): read-only.
            15..=29 => {
                Self::balances(&mut txn, [(SAVINGS, a, Read), (CHECKING, a, Read)])?;
            }
            // DepositChecking (15%).
            30..=44 => {
                let [chk] = Self::balances(&mut txn, [(CHECKING, a, ForUpdate)])?;
                Self::set_balance(&mut txn, CHECKING, a, chk + 130)?;
            }
            // SendPayment (25%): checking → checking.
            45..=69 => {
                let rows = [(CHECKING, a, ForUpdate), (CHECKING, b, ForUpdate)];
                let [src, dst] = Self::balances(&mut txn, rows)?;
                let amount = 50.min(src);
                Self::set_balance(&mut txn, CHECKING, a, src - amount)?;
                Self::set_balance(&mut txn, CHECKING, b, dst + amount)?;
            }
            // TransactSavings (15%).
            70..=84 => {
                let [sav] = Self::balances(&mut txn, [(SAVINGS, a, ForUpdate)])?;
                Self::set_balance(&mut txn, SAVINGS, a, sav + 20)?;
            }
            // WriteCheck (15%).
            _ => {
                let rows = [(SAVINGS, a, Read), (CHECKING, a, ForUpdate)];
                let [sav, chk] = Self::balances(&mut txn, rows)?;
                let amount = 25.min(sav + chk);
                Self::set_balance(&mut txn, CHECKING, a, chk.saturating_sub(amount))?;
            }
        }
        txn.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora::ProtocolKind;
    use rand::SeedableRng;

    fn sb_cluster(sb: &SmallBank) -> SimCluster {
        let b = crate::with_tables(
            SimCluster::builder(ProtocolKind::Pandora).memory_nodes(2).replication(2),
            sb,
        );
        let cluster = b.build().unwrap();
        sb.load(&cluster);
        cluster
    }

    #[test]
    fn mix_runs_and_commits() {
        let sb = SmallBank::new(64);
        let cluster = sb_cluster(&sb);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut committed = 0;
        for _ in 0..100 {
            if sb.execute(&mut co, &mut rng).is_ok() {
                committed += 1;
            }
        }
        assert!(committed > 50);
    }

    #[test]
    fn money_is_conserved_modulo_deposits() {
        // Amalgamate and SendPayment conserve; Deposit/TransactSavings
        // add; WriteCheck subtracts. Run only SendPayment-like op (force
        // via seed filtering is fragile) — instead assert the global
        // invariant: total ≥ 0 and bounded by initial + max deposits.
        let sb = SmallBank::new(32);
        let cluster = sb_cluster(&sb);
        let (mut co, _lease) = cluster.coordinator().unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut commits = 0u64;
        for _ in 0..200 {
            if sb.execute(&mut co, &mut rng).is_ok() {
                commits += 1;
            }
        }
        let total: u64 = (0..32)
            .flat_map(|a| [SAVINGS, CHECKING].into_iter().map(move |t| (t, a)))
            .map(|(t, a)| decode_field(&cluster.peek(t, a).expect("acct")))
            .sum();
        let initial = 32 * 2 * INITIAL_BALANCE;
        assert!(total <= initial + commits * 130, "deposits bound");
        assert!(total >= initial.saturating_sub(commits * 25), "withdrawal bound");
    }

    #[test]
    fn concurrent_transfers_conserve_under_contention() {
        let sb = std::sync::Arc::new(SmallBank { accounts: 8, hotspot_prob: 1.0 });
        let cluster = std::sync::Arc::new(sb_cluster(&sb));
        let mut handles = Vec::new();
        for t in 0..3 {
            let sb = std::sync::Arc::clone(&sb);
            let cluster = std::sync::Arc::clone(&cluster);
            handles.push(std::thread::spawn(move || {
                let (mut co, _lease) = cluster.coordinator().unwrap();
                let mut rng = StdRng::seed_from_u64(100 + t);
                for _ in 0..100 {
                    let _ = sb.execute(&mut co, &mut rng);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // No torn balances: every account decodes (the numeric field is
        // internally consistent because values are written atomically
        // w.r.t. validation).
        for a in 0..8 {
            let v = cluster.peek(CHECKING, a).expect("acct");
            assert!(decode_field(&v) < 10_000_000, "balance sane");
        }
    }
}
