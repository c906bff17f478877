//! The PostgreSQL-style extensibility surface of the paper's Section 4.
//!
//! Realizing SP-GiST inside PostgreSQL required three pieces of catalog
//! machinery, all mirrored here:
//!
//! * [`am::AccessMethod`] — the `pg_am` row describing an access method and
//!   its interface routines (paper Table 2),
//! * [`operator::Operator`] / [`operator::OperatorClass`] — the operators
//!   (`=`, `#=`, `?=`, `@`, `^`, `@=`, `@@`) and the operator classes that
//!   link them, together with their support functions, to an access method
//!   (paper Tables 4 and 5),
//! * [`cost::CostEstimate`] and [`planner::Planner`] — the
//!   `spgistcostestimate` analog: selectivity estimation per operator
//!   (`eqsel`, `contsel`, `likesel`) and an index-vs-sequential-scan choice
//!   based on estimated page reads,
//! * [`exec::Database`] / [`exec::Table`] — the executable query layer on
//!   top of the planner: heap storage plus physical indexes behind one
//!   `query(predicate)` entry point that plans, dispatches to the chosen
//!   index (or falls back to a sequential scan) and streams results through
//!   an [`exec::ExecCursor`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod am;
pub mod cost;
pub mod durable;
pub mod exec;
mod index;
pub mod operator;
pub mod planner;

pub use am::{AccessMethod, Catalog};
pub use cost::{CostEstimate, Selectivity, TableStats};
pub use exec::{
    Database, Datum, ExecCursor, IndexSpec, KeyType, Predicate, Query, ScanSource, Table,
    Transaction,
};
pub use operator::{Operator, OperatorClass, Strategy, SupportFunction};
pub use planner::{AccessPath, AvailableIndex, Planner, QueryPredicate};
pub use spgist_wal::{TxnId, Wal, WalConfig};
