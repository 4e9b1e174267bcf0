//! # sinew-rdbms
//!
//! An embedded relational database engine: the Postgres stand-in that the
//! Sinew layer (`sinew-core`) runs on top of, built from scratch for the
//! SIGMOD 2014 "Sinew" reproduction.
//!
//! What it shares with Postgres — because the paper's results depend on it:
//!
//! * slotted 8 KiB pages and a tuple format with a per-tuple attribute
//!   count and null **bitmap** (sparse data economics of §3.1.1/§5);
//! * a file-backed buffer pool, so datasets larger than memory become
//!   I/O-bound (the 64M-record regime of §6);
//! * `ALTER TABLE ADD COLUMN` without table rewrite (old tuples read the
//!   new column as NULL) — the mechanism behind dynamic materialization;
//! * user-defined scalar functions that are **opaque to the optimizer**;
//! * ANALYZE statistics (null fraction, n_distinct, MCVs, histogram) and a
//!   cost-based planner choosing Unique vs HashAggregate vs GroupAggregate
//!   and hash vs merge joins with Postgres-style defaults for anything it
//!   has no statistics for (Table 2's mechanism).
//!
//! Entry point: [`Database`].
//!
//! ```
//! use sinew_rdbms::{Database, Datum};
//! let db = Database::in_memory();
//! db.execute("CREATE TABLE t (a int, b text)").unwrap();
//! db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')").unwrap();
//! let r = db.execute("SELECT b FROM t WHERE a = 2").unwrap();
//! assert_eq!(r.rows, vec![vec![Datum::Text("y".into())]]);
//! ```

pub mod agg;
pub mod block;
pub mod btree;
pub mod columnar;
pub mod counters;
mod crew;
pub mod datum;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod func;
pub mod heap;
mod keys;
pub mod kernels;
pub mod page;
pub mod pager;
pub mod plan;
pub mod planner;
pub mod schema;
pub mod selectivity;
pub mod stats;
pub mod tuple;
pub mod txn;
pub mod wal;

pub use btree::SecondaryIndex;
pub use columnar::{ColumnStore, ColumnarInfo};
pub use datum::{ColType, Datum, KeyRange};
pub use db::{
    Database, Derive, PlanEpoch, Prepared, QueryResult, RowWrite, Session, Txn, WriteToken,
};
pub use error::{DbError, DbResult};
pub use block::{BlockOperator, RowBlock};
pub use exec::{ExecLimits, ExecSnapshot};
pub use func::{ScalarFn, ValueTest};
pub use heap::{RowId, Tagger};
pub use kernels::KernelStats;
pub use planner::PlannerConfig;
pub use selectivity::Defaults;
pub use txn::{TxnManager, Vis, WriteMode, NO_END, READ_LATEST, TXN_BASE};
pub use wal::{Wal, WalConfig};
