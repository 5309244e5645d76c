//! TPC-C table schemas (integer attributes only) and database population.

use ltpg_storage::{ColId, Database, Table, TableBuilder, TableId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::keys::{
    cust_key, dist_key, stock_key, wh_key, CUSTOMERS_PER_D, DISTRICTS_PER_W, ITEMS,
};

/// Column indexes per table, named after their TPC-C counterparts.
pub mod cols {
    #![allow(missing_docs)]
    use ltpg_storage::ColId;

    pub const W_TAX: ColId = ColId(0);
    pub const W_YTD: ColId = ColId(1);
    pub const W_ZIP: ColId = ColId(2);

    pub const D_TAX: ColId = ColId(0);
    pub const D_YTD: ColId = ColId(1);
    pub const D_NEXT_O_ID: ColId = ColId(2);
    pub const D_ZIP: ColId = ColId(3);

    pub const C_BALANCE: ColId = ColId(0);
    pub const C_YTD_PAYMENT: ColId = ColId(1);
    pub const C_PAYMENT_CNT: ColId = ColId(2);
    pub const C_DISCOUNT: ColId = ColId(3);
    pub const C_CREDIT: ColId = ColId(4);
    pub const C_DELIVERY_CNT: ColId = ColId(5);

    pub const I_PRICE: ColId = ColId(0);
    pub const I_IM_ID: ColId = ColId(1);
    pub const I_DATA: ColId = ColId(2);

    pub const S_QUANTITY: ColId = ColId(0);
    pub const S_YTD: ColId = ColId(1);
    pub const S_ORDER_CNT: ColId = ColId(2);
    pub const S_REMOTE_CNT: ColId = ColId(3);

    pub const O_C_ID: ColId = ColId(0);
    pub const O_ENTRY_D: ColId = ColId(1);
    pub const O_CARRIER_ID: ColId = ColId(2);
    pub const O_OL_CNT: ColId = ColId(3);
    pub const O_ALL_LOCAL: ColId = ColId(4);

    pub const NO_FLAG: ColId = ColId(0);

    pub const OL_I_ID: ColId = ColId(0);
    pub const OL_SUPPLY_W: ColId = ColId(1);
    pub const OL_QUANTITY: ColId = ColId(2);
    pub const OL_AMOUNT: ColId = ColId(3);
    pub const OL_DELIVERY_D: ColId = ColId(4);

    pub const H_C_ID: ColId = ColId(0);
    pub const H_D_ID: ColId = ColId(1);
    pub const H_W_ID: ColId = ColId(2);
    pub const H_AMOUNT: ColId = ColId(3);
    pub const H_DATE: ColId = ColId(4);
}

/// Table ids of a populated TPC-C database.
#[derive(Debug, Clone, Copy)]
pub struct TpccTables {
    /// WAREHOUSE.
    pub warehouse: TableId,
    /// DISTRICT.
    pub district: TableId,
    /// CUSTOMER.
    pub customer: TableId,
    /// ITEM.
    pub item: TableId,
    /// STOCK.
    pub stock: TableId,
    /// ORDERS.
    pub orders: TableId,
    /// NEW_ORDER.
    pub new_order: TableId,
    /// ORDER_LINE.
    pub order_line: TableId,
    /// HISTORY.
    pub history: TableId,
}

/// Initial W_YTD (cents). The invariant `W_YTD = Σ D_YTD` must hold at
/// population time: `300_000 = 10 × 30_000`.
pub const INIT_W_YTD: i64 = 300_000;
/// Initial D_YTD (cents).
pub const INIT_D_YTD: i64 = 30_000;

/// Build and populate a TPC-C database for `warehouses`, leaving
/// `insert_headroom` spare rows in each insert-target table (ORDERS,
/// NEW_ORDER, HISTORY; ORDER_LINE gets 15× that).
#[allow(dead_code)]
pub(crate) fn build_database(warehouses: i64, insert_headroom: usize, seed: u64) -> (Database, TpccTables) {
    build_database_with(warehouses, insert_headroom, seed, false)
}

/// [`build_database`] with optional ordered (B+tree) indexing of the STOCK
/// table, needed by the full-mix StockLevel transaction. NEW_ORDER and
/// ORDER_LINE always declare ordered indexes, for Delivery and OrderStatus
/// to range over. A table's tree is built by its first range scan
/// (`Table::ordered`), so a mix without those transactions never builds
/// one.
pub fn build_database_with(
    warehouses: i64,
    insert_headroom: usize,
    seed: u64,
    ordered_stock: bool,
) -> (Database, TpccTables) {
    assert!(warehouses >= 1, "need at least one warehouse");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7063_7074);
    let mut db = Database::new();
    let w_cnt = warehouses as usize;
    let d_cnt = w_cnt * DISTRICTS_PER_W as usize;
    let c_cnt = d_cnt * CUSTOMERS_PER_D as usize;
    let s_cnt = w_cnt * ITEMS as usize;

    let warehouse = db.add_table(
        TableBuilder::new("WAREHOUSE").columns(["W_TAX", "W_YTD", "W_ZIP"]).capacity(w_cnt).build(),
    );
    let district = db.add_table(
        TableBuilder::new("DISTRICT")
            .columns(["D_TAX", "D_YTD", "D_NEXT_O_ID", "D_ZIP"])
            .capacity(d_cnt)
            .build(),
    );
    let customer = db.add_table(
        TableBuilder::new("CUSTOMER")
            .columns([
                "C_BALANCE",
                "C_YTD_PAYMENT",
                "C_PAYMENT_CNT",
                "C_DISCOUNT",
                "C_CREDIT",
                "C_DELIVERY_CNT",
            ])
            .capacity(c_cnt)
            .build(),
    );
    let item = db.add_table(
        TableBuilder::new("ITEM")
            .columns(["I_PRICE", "I_IM_ID", "I_DATA"])
            .capacity(ITEMS as usize)
            .build(),
    );
    let stock_schema = TableBuilder::new("STOCK")
        .columns(["S_QUANTITY", "S_YTD", "S_ORDER_CNT", "S_REMOTE_CNT"])
        .capacity(s_cnt)
        .build();
    let stock = if ordered_stock {
        db.add_built_table(Table::new(stock_schema).with_ordered())
    } else {
        db.add_table(stock_schema)
    };
    let orders = db.add_table(
        TableBuilder::new("ORDERS")
            .columns(["O_C_ID", "O_ENTRY_D", "O_CARRIER_ID", "O_OL_CNT", "O_ALL_LOCAL"])
            .capacity(insert_headroom.max(1))
            .build(),
    );
    let new_order = db.add_built_table(
        Table::new(
            TableBuilder::new("NEW_ORDER").column("NO_FLAG").capacity(insert_headroom.max(1)).build(),
        )
        .with_ordered(),
    );
    let order_line = db.add_built_table(
        Table::new(
            TableBuilder::new("ORDER_LINE")
                .columns(["OL_I_ID", "OL_SUPPLY_W", "OL_QUANTITY", "OL_AMOUNT", "OL_DELIVERY_D"])
                .capacity(insert_headroom.saturating_mul(15).max(1))
                .build(),
        )
        .with_ordered(),
    );
    let history = db.add_table(
        TableBuilder::new("HISTORY")
            .columns(["H_C_ID", "H_D_ID", "H_W_ID", "H_AMOUNT", "H_DATE"])
            .capacity(insert_headroom.max(1))
            .build(),
    );

    // Lay the loaded tables' indexes out for their rows before loading;
    // the insert tables keep their placeholders until the first batch's
    // inserts are reserved.
    for (table, rows) in [
        (warehouse, w_cnt),
        (district, d_cnt),
        (customer, c_cnt),
        (item, ITEMS as usize),
        (stock, s_cnt),
    ] {
        db.reserve(table, rows);
    }
    for w in 1..=warehouses {
        db.table_mut(warehouse)
            .insert(wh_key(w), &[rng.gen_range(0..=2_000), INIT_W_YTD, rng.gen_range(10_000..=99_999)])
            .expect("warehouse insert");
        for d in 1..=DISTRICTS_PER_W {
            db.table_mut(district)
                .insert(
                    dist_key(w, d),
                    &[rng.gen_range(0..=2_000), INIT_D_YTD, 1, rng.gen_range(10_000..=99_999)],
                )
                .expect("district insert");
            for c in 1..=CUSTOMERS_PER_D {
                db.table_mut(customer)
                    .insert(
                        cust_key(w, d, c),
                        &[
                            -1_000,                      // C_BALANCE (cents)
                            1_000,                       // C_YTD_PAYMENT
                            1,                           // C_PAYMENT_CNT
                            rng.gen_range(0..=5_000),    // C_DISCOUNT (basis points)
                            i64::from(rng.gen_bool(0.9)), // C_CREDIT: 1 = good
                            0,                           // C_DELIVERY_CNT
                        ],
                    )
                    .expect("customer insert");
            }
        }
        for i in 1..=ITEMS {
            db.table_mut(stock)
                .insert(stock_key(w, i), &[rng.gen_range(10..=100), 0, 0, 0])
                .expect("stock insert");
        }
    }
    for i in 1..=ITEMS {
        db.table_mut(item)
            .insert(i, &[rng.gen_range(100..=10_000), rng.gen_range(1..=10_000), rng.gen::<u32>() as i64])
            .expect("item insert");
    }

    (
        db,
        TpccTables {
            warehouse,
            district,
            customer,
            item,
            stock,
            orders,
            new_order,
            order_line,
            history,
        },
    )
}

/// Sum of a column over all live rows (test/invariant helper).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn column_sum(db: &Database, table: TableId, col: ColId) -> i64 {
    let t = db.table(table);
    let mut sum = 0i64;
    for r in 0..t.len() {
        let rid = ltpg_storage::RowId(r as u32);
        if t.key_of(rid).is_some() {
            sum = sum.wrapping_add(t.get(rid, col));
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_matches_cardinalities() {
        let (db, t) = build_database(2, 100, 1);
        assert_eq!(db.table(t.warehouse).live_rows(), 2);
        assert_eq!(db.table(t.district).live_rows(), 20);
        assert_eq!(db.table(t.customer).live_rows(), 2 * 10 * 3_000);
        assert_eq!(db.table(t.item).live_rows(), 100_000);
        assert_eq!(db.table(t.stock).live_rows(), 200_000);
        assert_eq!(db.table(t.orders).live_rows(), 0);
    }

    #[test]
    fn ytd_invariant_holds_at_population() {
        let (db, t) = build_database(3, 10, 2);
        let w_sum = column_sum(&db, t.warehouse, cols::W_YTD);
        let d_sum = column_sum(&db, t.district, cols::D_YTD);
        assert_eq!(w_sum, d_sum);
        assert_eq!(w_sum, 3 * INIT_W_YTD);
    }

    #[test]
    fn population_is_seed_deterministic() {
        let (a, _) = build_database(1, 10, 7);
        let (b, _) = build_database(1, 10, 7);
        let (c, _) = build_database(1, 10, 8);
        assert_eq!(a.state_digest(), b.state_digest());
        assert_ne!(a.state_digest(), c.state_digest());
    }
}
