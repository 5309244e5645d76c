//! TPC-C consistency conditions, adapted to the tables this reproduction
//! maintains. Engines must preserve these across any committed set:
//!
//! 1. Per warehouse: `W_YTD = Σ_d D_YTD` (Payment adds the amount to both).
//! 2. Per district: `D_NEXT_O_ID − 1 =` number of ORDERS rows of that
//!    district (NewOrder counts the order and inserts exactly one row).
//! 3. Undelivered ORDERS (carrier = 0) and NEW_ORDER rows are in
//!    one-to-one correspondence (Delivery removes the NEW_ORDER row when
//!    it stamps a carrier), and each order has exactly `O_OL_CNT`
//!    ORDER_LINE rows.

use std::collections::HashMap;

use ltpg_storage::{Database, RowId};

use super::keys::{dist_key, order_key_district, DISTRICTS_PER_W};
use super::schema::{cols, TpccTables};

/// A violated consistency condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantError(pub String);

impl std::fmt::Display for InvariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TPC-C invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantError {}

/// Check all supported consistency conditions over `db`.
pub fn check_invariants(
    db: &Database,
    t: &TpccTables,
    warehouses: i64,
) -> Result<(), InvariantError> {
    // 1. W_YTD = Σ D_YTD per warehouse.
    for w in 1..=warehouses {
        let wt = db.table(t.warehouse);
        let rid = wt
            .lookup(super::keys::wh_key(w))
            .ok_or_else(|| InvariantError(format!("warehouse {w} missing")))?;
        let w_ytd = wt.get(rid, cols::W_YTD);
        let mut d_sum = 0i64;
        for d in 1..=DISTRICTS_PER_W {
            let dt = db.table(t.district);
            let drid = dt
                .lookup(dist_key(w, d))
                .ok_or_else(|| InvariantError(format!("district ({w},{d}) missing")))?;
            d_sum += dt.get(drid, cols::D_YTD);
        }
        if w_ytd != d_sum {
            return Err(InvariantError(format!(
                "warehouse {w}: W_YTD {w_ytd} != sum of D_YTD {d_sum}"
            )));
        }
    }

    // 2 & 3. Order counts per district and ORDERS↔NEW_ORDER↔ORDER_LINE.
    let orders = db.table(t.orders);
    let mut per_district: HashMap<i64, i64> = HashMap::new();
    let mut ol_expected = 0usize;
    let mut undelivered = 0usize;
    for r in 0..orders.len() {
        let rid = RowId(r as u32);
        let Some(key) = orders.key_of(rid) else { continue };
        *per_district.entry(order_key_district(key)).or_default() += 1;
        ol_expected += orders.get(rid, cols::O_OL_CNT) as usize;
        let delivered = orders.get(rid, cols::O_CARRIER_ID) != 0;
        if delivered {
            if db.table(t.new_order).lookup(key).is_some() {
                return Err(InvariantError(format!(
                    "delivered order {key} still has a NEW_ORDER row"
                )));
            }
        } else {
            undelivered += 1;
            if db.table(t.new_order).lookup(key).is_none() {
                return Err(InvariantError(format!("order {key} has no NEW_ORDER row")));
            }
        }
    }
    if db.table(t.new_order).live_rows() != undelivered {
        return Err(InvariantError(format!(
            "NEW_ORDER rows {} != undelivered ORDERS {}",
            db.table(t.new_order).live_rows(),
            undelivered
        )));
    }
    if db.table(t.order_line).live_rows() != ol_expected {
        return Err(InvariantError(format!(
            "ORDER_LINE rows {} != sum of O_OL_CNT {}",
            db.table(t.order_line).live_rows(),
            ol_expected
        )));
    }
    for w in 1..=warehouses {
        for d in 1..=DISTRICTS_PER_W {
            let dt = db.table(t.district);
            let drid = dt.lookup(dist_key(w, d)).expect("checked above");
            let next = dt.get(drid, cols::D_NEXT_O_ID);
            let count = per_district.get(&dist_key(w, d)).copied().unwrap_or(0);
            if next - 1 != count {
                return Err(InvariantError(format!(
                    "district ({w},{d}): D_NEXT_O_ID {next} inconsistent with {count} orders"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::gen::{TpccConfig, TpccGenerator};
    use super::*;
    use ltpg_txn::{execute_serial, Batch, TidGen};

    #[test]
    fn invariants_hold_after_serial_batches() {
        let (mut db, t, mut g) = TpccGenerator::new(TpccConfig::new(2, 50).with_headroom(2_048));
        check_invariants(&db, &t, 2).unwrap();
        let mut gen = TidGen::new();
        for _ in 0..3 {
            let batch = Batch::assemble(vec![], g.gen_batch(100), &mut gen);
            for txn in &batch.txns {
                execute_serial(&mut db, txn).unwrap();
            }
            check_invariants(&db, &t, 2).unwrap();
        }
    }

    #[test]
    fn ytd_corruption_is_detected() {
        let (mut db, t, _g) = TpccGenerator::new(TpccConfig::new(1, 50).with_headroom(64));
        let wt = db.table_mut(t.warehouse);
        let rid = wt.lookup(1).unwrap();
        wt.add(rid, cols::W_YTD, 5);
        let err = check_invariants(&db, &t, 1).unwrap_err();
        assert!(err.0.contains("W_YTD"));
    }

    #[test]
    fn dangling_order_is_detected() {
        let (mut db, t, _g) = TpccGenerator::new(TpccConfig::new(1, 50).with_headroom(64));
        // An order without NEW_ORDER row / district count.
        db.table_mut(t.orders)
            .insert(super::super::keys::order_key(1, 1, 7), &[1, 1, 0, 5, 1])
            .unwrap();
        assert!(check_invariants(&db, &t, 1).is_err());
    }
}
