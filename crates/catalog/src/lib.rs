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
//!   based on estimated page reads.
//!
//! On top of that machinery sits the executable query layer, one concern
//! per module:
//!
//! * `datum` — values and predicates: [`KeyType`], [`Datum`] (and its
//!   heap/WAL encoding), [`Predicate`] trees and [`Query`];
//! * [`planner`] — plan construction: the one-operator access-path choice
//!   and the decomposition of a predicate tree into a physical operator
//!   tree, a pure function of the catalog, the table's statistics, its
//!   indexes and the query;
//! * [`exec`] — execution: the [`Table`] (heap, row directory, DML, index
//!   registry) and the serial executor that streams a plan's rows through
//!   an [`ExecCursor`];
//! * `database` — the [`Database`] facade: constructors, durable open
//!   with write-ahead-log replay, checkpoints and DDL;
//! * `txn` — multi-statement [`Transaction`]s and their logical undo.
//!
//! Every public name of the query layer is also reachable as
//! `spgist_catalog::exec::*`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod am;
pub mod cost;
mod database;
mod datum;
pub mod durable;
pub mod exec;
mod index;
pub mod operator;
pub mod planner;
mod txn;

pub use am::{AccessMethod, Catalog};
pub use cost::{CostEstimate, Selectivity, TableStats};
pub use exec::{
    Database, Datum, ExecCursor, IndexSpec, KeyType, Predicate, Query, ScanSource, Table,
    Transaction,
};
pub use operator::{Operator, OperatorClass, Strategy, SupportFunction};
pub use planner::{AccessPath, AvailableIndex, Planner, QueryPredicate};
pub use spgist_wal::{TxnId, Wal, WalConfig};
