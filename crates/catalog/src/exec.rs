//! The executor: the [`Table`] (heap, row directory, DML and the index
//! registry) and the one serial executor that turns a planned physical
//! operator tree into a streaming [`ExecCursor`].
//!
//! A table derives the planner's [`AvailableIndex`] statistics in O(1)
//! from each index's live page count and a memoized page height, hands
//! them to the [`planner`], and runs the chosen plan; the cursor's
//! [`ExecCursor::path`]/[`ExecCursor::source`] expose the planned operator
//! tree and the scans it dispatched to.  Indexes (any of the five
//! `SpIndex` classes) sit behind one trait object, see the `index` module.
//! Tables are `Send + Sync` and shared as `Arc<Table>` handles: the
//! concurrency rules are on [`Table`].  Each query runs serially;
//! [`Database::run_parallel`] spreads a batch of queries over threads.
//!
//! This module is also the public home of the query layer's names: the
//! value and predicate types, [`Database`] and [`Transaction`] are
//! re-exported here from the modules that define them.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use spgist_core::RowId;
use spgist_storage::{
    AccessHint, BufferPool, Codec, HeapFile, RecordId, StorageError, StorageResult,
};
use spgist_wal::{Lsn, TxnId, Wal, WalRecord, AUTOCOMMIT};

use crate::am::Catalog;
use crate::cost::TableStats;
use crate::durable::{PersistedTable, RowsDelta, TableSnapshot, ROWS_PER_CHUNK};
use crate::index::NamedIndex;
use crate::planner::{self, AccessPath, AvailableIndex, PhysNode, PlanContext};

pub use crate::database::Database;
pub use crate::datum::{Datum, KeyType, Predicate, Query};
pub use crate::index::IndexSpec;
pub use crate::txn::Transaction;

// ---------------------------------------------------------------------------
// Execution cursors
// ---------------------------------------------------------------------------

/// Where an [`ExecCursor`]'s rows come from: the scans of the executed
/// plan, projected once from its [`AccessPath`] (the executor follows the
/// plan's shape node for node), so tests can check which heap and index
/// scans a query ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanSource {
    /// Heap sequential scan with a per-tuple predicate re-check.
    Heap,
    /// Scan through the named physical index.
    Index {
        /// Name of the index being scanned.
        name: String,
    },
    /// Ordered (nearest-neighbour) scan through the named physical index.
    OrderedIndex {
        /// Name of the index being scanned.
        name: String,
    },
    /// Residual filter over the input source.
    Filter {
        /// The driving source.
        input: Box<ScanSource>,
    },
    /// Intersection of several row-id streams.
    Intersect {
        /// The participating sources.
        inputs: Vec<ScanSource>,
    },
    /// Deduplicated union of several row-id streams.
    Union {
        /// The participating sources.
        inputs: Vec<ScanSource>,
    },
    /// `LIMIT` applied over the input source.
    Limit {
        /// The limited source.
        input: Box<ScanSource>,
    },
}

impl ScanSource {
    /// True if any node of this source tree scans the named index.
    pub fn scans_index(&self, index: &str) -> bool {
        match self {
            ScanSource::Heap => false,
            ScanSource::Index { name } | ScanSource::OrderedIndex { name } => name == index,
            ScanSource::Filter { input } | ScanSource::Limit { input } => input.scans_index(index),
            ScanSource::Intersect { inputs } | ScanSource::Union { inputs } => {
                inputs.iter().any(|s| s.scans_index(index))
            }
        }
    }
}

impl From<&AccessPath> for ScanSource {
    fn from(path: &AccessPath) -> Self {
        let all = |inputs: &[AccessPath]| inputs.iter().map(ScanSource::from).collect();
        match path {
            AccessPath::SeqScan { .. } => ScanSource::Heap,
            AccessPath::IndexScan { index, .. } => ScanSource::Index {
                name: index.clone(),
            },
            AccessPath::OrderedScan { index, .. } => ScanSource::OrderedIndex {
                name: index.clone(),
            },
            AccessPath::Filter { input, .. } => ScanSource::Filter {
                input: Box::new(ScanSource::from(&**input)),
            },
            AccessPath::Intersect { inputs, .. } => ScanSource::Intersect {
                inputs: all(inputs),
            },
            AccessPath::Union { inputs, .. } => ScanSource::Union {
                inputs: all(inputs),
            },
            AccessPath::Limit { input, .. } => ScanSource::Limit {
                input: Box::new(ScanSource::from(&**input)),
            },
        }
    }
}

/// A streaming query result: `(row id, key datum)` pairs pulled lazily from
/// the chosen access path.
pub struct ExecCursor<'t> {
    path: AccessPath,
    source: ScanSource,
    inner: Box<dyn Iterator<Item = StorageResult<(RowId, Datum)>> + 't>,
}

impl ExecCursor<'_> {
    /// The access path the planner chose for this query.
    pub fn path(&self) -> &AccessPath {
        &self.path
    }

    /// The access path actually being scanned.
    pub fn source(&self) -> &ScanSource {
        &self.source
    }

    /// Drains the cursor into the row ids of every match.
    pub fn rows(self) -> StorageResult<Vec<RowId>> {
        self.map(|item| item.map(|(row, _)| row)).collect()
    }
}

impl Iterator for ExecCursor<'_> {
    type Item = StorageResult<(RowId, Datum)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

impl std::fmt::Debug for ExecCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCursor")
            .field("path", &self.path)
            .field("source", &self.source)
            .finish()
    }
}

/// Item type flowing between physical operators: a row id, plus the key
/// datum when an upstream operator already fetched it from the heap.
type RowStream<'t> = Box<dyn Iterator<Item = StorageResult<(RowId, Option<Datum>)>> + 't>;

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

/// What changed in a table since the last checkpoint.  Every mutation path
/// updates this under the table latch (inside the DML lock), and the
/// checkpoint reads-and-resets it while holding the table's DML guard — so
/// the dirty set always agrees with the state being snapshotted.
#[derive(Default)]
struct TableDirty {
    /// Anything at all changed (rows, counters, heap growth, index DDL):
    /// the checkpoint must rewrite this table's metadata segment.  Clean
    /// tables (`false`) cost a checkpoint zero page writes.
    mutated: bool,
    /// Rewrite the whole row directory — a fresh table, or conservative
    /// recovery after a failed checkpoint left the on-disk chunks in doubt.
    all_rows: bool,
    /// Row-directory chunks touched since the last checkpoint
    /// (`row / ROWS_PER_CHUNK`), ignored while `all_rows` is set.
    row_chunks: BTreeSet<u64>,
}

impl TableDirty {
    /// Everything dirty: the state of a table that has never checkpointed.
    fn all() -> Self {
        TableDirty {
            mutated: true,
            all_rows: true,
            row_chunks: BTreeSet::new(),
        }
    }

    /// Records a mutation of one row-directory slot.
    fn mark_row(&mut self, row: RowId) {
        self.mutated = true;
        if !self.all_rows {
            self.row_chunks.insert(row / ROWS_PER_CHUNK);
        }
    }
}

/// The latched mutable state of a [`Table`]: the heap file, the row
/// directory, and the statistics that change with every write.
struct TableInner {
    heap: HeapFile,
    /// Row id → heap record (None once deleted).  Row ids are dense and
    /// assigned in insertion order, like the paper's heap tuple pointers.
    rows: Vec<Option<RecordId>>,
    live_rows: u64,
    /// Encoded key values seen on insert *this session*, for the planner's
    /// `distinct_values` statistic (deletions are not subtracted —
    /// statistics, not truth).  A bulk index build ([`Table::create_index`]
    /// on a populated table) re-seeds this set from its full heap scan, so
    /// right after a build the statistic is the *exact* live distinct count.
    distinct: HashSet<Vec<u8>>,
    /// Distinct-count seed restored from the durable catalog on reopen; the
    /// statistic reported is `distinct_base + distinct.len()`.  Values
    /// re-inserted after a reopen may double-count — again statistics, not
    /// truth.
    distinct_base: u64,
    /// Checkpoint dirty-tracking (see [`TableDirty`]).
    dirty: TableDirty,
}

impl TableInner {
    /// Writes `record` to the heap and makes `row` live — appended at the
    /// row-directory end, or refilling a dead slot (an undone delete).
    /// With [`TableInner::remove`] this is the only write of a live row:
    /// the row directory, `live_rows`, the distinct-key statistic and the
    /// checkpoint's dirty set change together here.
    fn place(&mut self, row: RowId, record: Vec<u8>) -> StorageResult<()> {
        let slot = row as usize;
        let append = slot == self.rows.len();
        assert!(
            append || self.rows.get(slot) == Some(&None),
            "row {row} is neither the next row id nor a dead slot"
        );
        let rid = self.heap.insert(&record)?;
        if append {
            self.rows.push(Some(rid));
        } else {
            self.rows[slot] = Some(rid);
        }
        self.live_rows += 1;
        self.distinct.insert(record);
        self.dirty.mark_row(row);
        Ok(())
    }

    /// Deletes live `row` from the heap and the row directory (its id slot
    /// stays allocated, dead), returning its datum; `None` when the row is
    /// not live.
    fn remove(&mut self, row: RowId) -> StorageResult<Option<Datum>> {
        let Some(rid) = self.rows.get(row as usize).copied().flatten() else {
            return Ok(None);
        };
        // Decoded before anything changes: a damaged record fails the
        // delete and leaves the row as it was.
        let datum = Datum::from_bytes(&self.heap.get(rid)?)?;
        self.heap.delete(rid)?;
        self.rows[row as usize] = None;
        self.live_rows -= 1;
        self.dirty.mark_row(row);
        Ok(Some(datum))
    }
}

/// A heap-backed table with one typed key column and any number of physical
/// indexes over it.
///
/// A `Table` is `Send + Sync`: share it behind an `Arc` and run DML and
/// queries from many threads.  The heap and row directory sit behind a
/// table-level reader-writer latch; each physical index is internally
/// concurrent (crabbing writers, epoch-pinned cursors).  An insert appends
/// to the heap under the table latch, releases it, then updates the indexes
/// — so a concurrent query sees either nothing (not yet indexed) or a fully
/// fetchable row, never a dangling index entry.  DDL
/// ([`Table::create_index`] / [`Table::drop_index`]) still requires `&mut`:
/// exclusive access, the analog of PostgreSQL's `AccessExclusiveLock`.
pub struct Table {
    name: String,
    key_type: KeyType,
    pool: Arc<BufferPool>,
    inner: RwLock<TableInner>,
    indexes: Vec<NamedIndex>,
    /// Serializes whole DML statements (heap change **and** the index
    /// updates that follow) — multi-index atomicity.  Without it, a delete
    /// racing an insert of the same row could run its index removals
    /// *between* the insert's heap append and index insert — the removal
    /// finds nothing, the insert then lands, and the index permanently
    /// names a dead row.  Only `insert`/`delete` take this lock, and they
    /// take it before any latch, so it adds no ordering cycle with readers
    /// (which run latch-free through the indexes and never touch it).
    dml: Mutex<()>,
    /// The database's write-ahead log, when this table belongs to a durable
    /// database.  DML **submits** its redo record while still holding the
    /// DML lock (so a checkpoint's log cut can never separate an applied
    /// statement from its record) and **waits** for durability after
    /// releasing it (so concurrent writers overlap their fsyncs — that wait
    /// is where group commit batches).
    wal: Option<Arc<Wal>>,
}

impl Table {
    /// Creates an empty table whose heap pages come from `pool`.
    pub fn create(name: &str, key_type: KeyType, pool: Arc<BufferPool>) -> StorageResult<Self> {
        Ok(Table {
            name: name.to_string(),
            key_type,
            inner: RwLock::new(TableInner {
                heap: HeapFile::create(Arc::clone(&pool))?,
                rows: Vec::new(),
                live_rows: 0,
                distinct: HashSet::new(),
                distinct_base: 0,
                // Never checkpointed: the first checkpoint writes everything.
                dirty: TableDirty::all(),
            }),
            pool,
            indexes: Vec::new(),
            dml: Mutex::new(()),
            wal: None,
        })
    }

    /// Reconstructs a table from its durable-catalog record: the heap file
    /// reopens from its persisted page directory, the row directory is
    /// restored verbatim (no rebuild scan), and every index reopens from its
    /// tree meta page and owned-page list.
    pub(crate) fn from_persisted(
        pool: Arc<BufferPool>,
        pt: &PersistedTable,
    ) -> StorageResult<Self> {
        let key_type = KeyType::from_tag(pt.key_type)?;
        let heap = HeapFile::open(Arc::clone(&pool), pt.heap_pages.clone(), pt.heap_records)?;
        let mut indexes = Vec::with_capacity(pt.indexes.len());
        for pi in &pt.indexes {
            let (index, spec) = IndexSpec::reopen(Arc::clone(&pool), pi)?;
            if spec.key_type() != key_type {
                return Err(StorageError::Corrupt(format!(
                    "catalog index {:?} ({}) does not match table {:?} of type {}",
                    pi.name,
                    spec.key_type().name(),
                    pt.name,
                    key_type.name()
                )));
            }
            indexes.push(NamedIndex::new(&pi.name, spec, index));
        }
        Ok(Table {
            name: pt.name.clone(),
            key_type,
            inner: RwLock::new(TableInner {
                heap,
                rows: pt.rows.clone(),
                live_rows: pt.live_rows,
                distinct: HashSet::new(),
                distinct_base: pt.distinct,
                // Reopened from a checkpoint image: clean until mutated.
                dirty: TableDirty::default(),
            }),
            pool,
            indexes,
            dml: Mutex::new(()),
            wal: None,
        })
    }

    /// Hooks this table up to the database's write-ahead log; DML from here
    /// on is logged before it is acknowledged.  Called once while the table
    /// is still exclusively owned (create, open-after-replay).
    pub(crate) fn attach_wal(&mut self, wal: Arc<Wal>) {
        self.wal = Some(wal);
    }

    /// Acquires this table's DML lock for an external critical section.
    /// The checkpoint protocol holds every table's guard across its whole
    /// snapshot-and-flush window, so no statement can be half-applied (a
    /// heap page without its index updates, half an index split) in the
    /// page images being flushed.
    pub(crate) fn dml_guard(&self) -> MutexGuard<'_, ()> {
        self.dml.lock()
    }

    /// Takes this table's checkpoint snapshot — the durable-catalog delta
    /// since the last checkpoint — and resets the dirty state, or returns
    /// `None` (and writes nothing) when the table is clean.  The caller
    /// (checkpoint) already holds this table's **DML lock** via
    /// [`Table::dml_guard`], so a concurrent insert or delete statement
    /// (heap change *plus* the index updates that follow) either lands
    /// wholly before the snapshot or wholly after it — a checkpoint racing
    /// DML through shared handles can never persist a row directory that
    /// disagrees with its indexes.  The heap state is read under the table
    /// latch (released before the index latches are touched, keeping lock
    /// orders acyclic with query paths).
    ///
    /// If the checkpoint later fails, the caller must put the dirtiness
    /// back with [`Table::mark_all_dirty`]: the on-disk chunks are then in
    /// doubt, and the conservative full rewrite restores the invariant.
    pub(crate) fn take_checkpoint_snapshot(&self) -> Option<TableSnapshot> {
        let (heap_pages, heap_records, live_rows, distinct, rows_len, rows) = {
            let mut inner = self.inner.write();
            if !inner.dirty.mutated {
                return None;
            }
            let dirty = std::mem::take(&mut inner.dirty);
            let rows_len = inner.rows.len() as u64;
            let rows = if dirty.all_rows {
                RowsDelta::Full(inner.rows.clone())
            } else {
                RowsDelta::Chunks(
                    dirty
                        .row_chunks
                        .iter()
                        .filter(|&&chunk| chunk * ROWS_PER_CHUNK < rows_len)
                        .map(|&chunk| {
                            let lo = (chunk * ROWS_PER_CHUNK) as usize;
                            let hi = (lo + ROWS_PER_CHUNK as usize).min(inner.rows.len());
                            (chunk, inner.rows[lo..hi].to_vec())
                        })
                        .collect(),
                )
            };
            (
                inner.heap.pages().to_vec(),
                inner.heap.record_count(),
                inner.live_rows,
                inner.distinct_base + inner.distinct.len() as u64,
                rows_len,
                rows,
            )
        };
        Some(TableSnapshot {
            name: self.name.clone(),
            key_type: self.key_type.tag(),
            heap_pages,
            heap_records,
            live_rows,
            distinct,
            rows_len,
            rows,
            indexes: self
                .indexes
                .iter()
                .map(|named| named.index.persisted(&named.name, &named.spec))
                .collect(),
        })
    }

    /// Marks every part of the table's durable record dirty, so the next
    /// checkpoint rewrites it wholesale.  Used when a failed checkpoint
    /// leaves the on-disk chunks in doubt, and by
    /// [`Database::checkpoint_full`] to measure the pre-incremental
    /// baseline.
    pub(crate) fn mark_all_dirty(&self) {
        self.inner.write().dirty = TableDirty::all();
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The key type of the table's indexed column.
    pub fn key_type(&self) -> KeyType {
        self.key_type
    }

    /// Number of live rows.
    pub fn len(&self) -> u64 {
        self.inner.read().live_rows
    }

    /// True if the table holds no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a key value, returning its row id — a one-row
    /// [`Table::insert_many`].  The value is appended to the heap under the
    /// table latch, which is released before the value is inserted into the
    /// registered indexes (each crabs its own per-page latches internally).
    /// The whole statement runs under the table's DML lock so a concurrent
    /// delete of the just-inserted row cannot interleave between the heap
    /// append and the index updates.
    pub fn insert(&self, datum: impl Into<Datum>) -> StorageResult<RowId> {
        Ok(self.insert_many([datum.into()])?[0])
    }

    /// Inserts a batch of key values as **one DML statement**, returning the
    /// assigned row ids in input order.
    ///
    /// Unlike a loop of [`Table::insert`] calls, the whole batch takes the
    /// table's DML lock once, appends every value to the heap under one
    /// table-latch acquisition, and then hands each physical index the
    /// whole batch in one call
    /// ([`SpIndex::insert_batch`](spgist_indexes::SpIndex::insert_batch)) —
    /// one statement with respect to other DML, and one WAL record instead
    /// of many.  A concurrent *cursor* (which takes no lock) may observe
    /// part of the batch mid-flight; it never observes a dangling index
    /// entry.
    pub fn insert_many<I>(&self, data: I) -> StorageResult<Vec<RowId>>
    where
        I: IntoIterator,
        I::Item: Into<Datum>,
    {
        let data: Vec<Datum> = data.into_iter().map(Into::into).collect();
        let (rows, lsn) = self.insert_many_logged(data, AUTOCOMMIT)?;
        if let (Some(wal), Some(lsn)) = (&self.wal, lsn) {
            wal.wait_durable(lsn)?;
        }
        Ok(rows)
    }

    /// The apply-and-log half of an insert statement: executes it under the
    /// DML lock and submits its redo record tagged with `txn`, but does
    /// **not** wait for durability.  Auto-commit ([`Table::insert_many`])
    /// waits on the returned LSN before acknowledging; a [`Transaction`]
    /// statement skips the wait entirely — its commit point is the
    /// `CommitTxn` record.
    pub(crate) fn insert_many_logged(
        &self,
        data: Vec<Datum>,
        txn: TxnId,
    ) -> StorageResult<(Vec<RowId>, Option<Lsn>)> {
        if let Some(bad) = data.iter().find(|d| d.key_type() != self.key_type) {
            return Err(StorageError::Unsupported(format!(
                "cannot insert a {} value into table {:?} of type {}",
                bad.key_type().name(),
                self.name,
                self.key_type.name()
            )));
        }
        if data.is_empty() {
            return Ok((Vec::new(), None));
        }
        let records: Vec<Vec<u8>> = data.iter().map(Datum::to_bytes).collect();
        let dml = self.dml.lock();
        let first = self.inner.read().rows.len() as RowId;
        let rows: Vec<RowId> = (first..first + data.len() as RowId).collect();
        // One redo record per statement, so recovery reproduces a batch's
        // all-or-nothing visibility; a single row keeps the `Insert` form.
        let redo = self.wal.as_ref().map(|wal| {
            let record = match records.as_slice() {
                [datum] => WalRecord::Insert {
                    table: self.name.clone(),
                    row: first,
                    datum: datum.clone(),
                    txn,
                },
                _ => WalRecord::InsertMany {
                    table: self.name.clone(),
                    first_row: first,
                    datums: records.clone(),
                    txn,
                },
            };
            (wal, record)
        });
        self.place_and_index(first, data, records)?;
        // Submit the redo record *inside* the DML lock (a checkpoint's log
        // cut must see statement-and-record as one unit), wait for the
        // fsync *outside* it (so concurrent writers' waits overlap and
        // group commit can batch them).
        let lsn = redo.map(|(wal, record)| wal.submit(&record)).transpose()?;
        drop(dml);
        Ok((rows, lsn))
    }

    /// Deletes the row, removing it from the heap and every index; returns
    /// whether the row existed.  A query racing the delete may still report
    /// the row (it was live when its cursor pinned the index) or skip it —
    /// never error.  Runs under the table's DML lock (see [`Table::insert`])
    /// so the heap removal and index removals are one atomic statement with
    /// respect to other DML.
    pub fn delete(&self, row: RowId) -> StorageResult<bool> {
        let (deleted, lsn) = self.delete_logged(row, AUTOCOMMIT)?;
        if let (Some(wal), Some(lsn)) = (&self.wal, lsn) {
            wal.wait_durable(lsn)?;
        }
        Ok(deleted.is_some())
    }

    /// The apply-and-log half of [`Table::delete`] (see
    /// [`Table::insert_many_logged`] for the auto-commit/transaction split).
    /// Returns the deleted datum — the information a transaction needs to
    /// undo the delete on abort — or `None` if the row did not exist.
    pub(crate) fn delete_logged(
        &self,
        row: RowId,
        txn: TxnId,
    ) -> StorageResult<(Option<Datum>, Option<Lsn>)> {
        let dml = self.dml.lock();
        let Some(datum) = self.remove_and_unindex(row)? else {
            return Ok((None, None));
        };
        // Submit under the DML lock, wait outside it (see
        // `insert_many_logged`).
        let lsn = match &self.wal {
            Some(wal) => Some(wal.submit(&WalRecord::Delete {
                table: self.name.clone(),
                row,
                txn,
            })?),
            None => None,
        };
        drop(dml);
        Ok((Some(datum), lsn))
    }

    /// Re-executes a logged insert statement — `records` at rows
    /// `first_row..` — during recovery.  Row ids are assigned
    /// deterministically (the row-directory end) and a statement applies
    /// atomically under the DML lock, which makes replay **idempotent and
    /// checkable**: a statement wholly below the row-directory end is
    /// already in the checkpoint image and is skipped; one starting exactly
    /// at the end replays where the original landed; anything else means
    /// the log and the checkpoint disagree and recovery must stop rather
    /// than guess.
    pub(crate) fn replay_insert(&self, first_row: RowId, records: &[Vec<u8>]) -> StorageResult<()> {
        let datums = records
            .iter()
            .map(|r| Datum::from_bytes(r))
            .collect::<StorageResult<Vec<_>>>()?;
        let _dml = self.dml.lock();
        let next = self.inner.read().rows.len() as RowId;
        let end = first_row + records.len() as RowId;
        if next >= end {
            return Ok(()); // wholly inside the checkpoint image
        }
        if next != first_row {
            return Err(StorageError::Corrupt(format!(
                "WAL replay gap on table {:?}: next row is {next} but the log \
                 covers rows {first_row}..{end}",
                self.name
            )));
        }
        self.place_and_index(first_row, datums, records.to_vec())
    }

    /// Rolls back one of a transaction's inserts: removes `row` from the
    /// heap and every index, **without logging**.  No compensation record is
    /// needed — if the process dies mid-abort, recovery reaches the same
    /// state by dropping the loser transaction's records.  The row-id slot
    /// stays allocated as a tombstone, so ids handed to later statements are
    /// unaffected (exactly the state recovery's loser-drop reproduces).  A
    /// row already gone was deleted by a concurrent statement (statements
    /// are not isolated) and is left alone.
    pub(crate) fn undo_insert(&self, row: RowId) -> StorageResult<()> {
        let _dml = self.dml.lock();
        self.remove_and_unindex(row).map(|_| ())
    }

    /// Rolls back one of a transaction's deletes: re-inserts the remembered
    /// `datum` at its original row id, unlogged (see [`Table::undo_insert`]).
    pub(crate) fn undo_delete(&self, row: RowId, datum: &Datum) -> StorageResult<()> {
        let _dml = self.dml.lock();
        if !matches!(self.inner.read().rows.get(row as usize), Some(None)) {
            // Live again or never allocated: another statement got there
            // first (statements are not isolated); leave it.
            return Ok(());
        }
        self.place_and_index(row, vec![datum.clone()], vec![datum.to_bytes()])
    }

    /// Places `records` at rows `first..` ([`TableInner::place`]), then
    /// inserts the matching decoded `datums` into every index — the one
    /// write shared by insert, replay and undo.  The caller holds the DML
    /// lock.  The table latch is released before the indexes are touched,
    /// so a concurrent query sees either nothing (not yet indexed) or a
    /// fully fetchable row, never a dangling index entry.
    fn place_and_index(
        &self,
        first: RowId,
        datums: Vec<Datum>,
        records: Vec<Vec<u8>>,
    ) -> StorageResult<()> {
        {
            let mut inner = self.inner.write();
            for (row, record) in (first..).zip(records) {
                inner.place(row, record)?;
            }
        }
        let items: Vec<(Datum, RowId)> = datums.into_iter().zip(first..).collect();
        for named in &self.indexes {
            named.index.insert_batch(&items)?;
        }
        Ok(())
    }

    /// Removes live `row` ([`TableInner::remove`]), then its entry in every
    /// index; returns the removed datum, or `None` — touching nothing — when
    /// the row is not live.  The caller holds the DML lock.
    fn remove_and_unindex(&self, row: RowId) -> StorageResult<Option<Datum>> {
        let removed = self.inner.write().remove(row)?;
        if let Some(datum) = &removed {
            for named in &self.indexes {
                named.index.delete(datum, row)?;
            }
        }
        Ok(removed)
    }

    /// Replays a loser transaction's logged insert of `count` rows starting
    /// at `row`: the statement must not apply, but its row ids were consumed
    /// at execution time and every later record's ids count on them — so the
    /// slots are allocated *dead* (no heap record, no index entry, not
    /// live), exactly the state an explicit abort's undo leaves behind.
    pub(crate) fn replay_loser_insert(&self, row: RowId, count: u64) -> StorageResult<()> {
        let _dml = self.dml.lock();
        let mut inner = self.inner.write();
        let next = inner.rows.len() as RowId;
        let end = row + count;
        if next < row {
            return Err(StorageError::Corrupt(format!(
                "WAL replay gap on table {:?}: next row is {next} but a loser \
                 transaction's insert covers rows {row}..{end}",
                self.name
            )));
        }
        for dead in next.max(row)..end {
            inner.rows.push(None);
            inner.dirty.mark_row(dead);
        }
        Ok(())
    }

    /// Reads the key value of a live row; an error if the row is unknown or
    /// deleted.
    pub fn datum(&self, row: RowId) -> StorageResult<Datum> {
        self.try_datum(row)?
            .ok_or_else(|| StorageError::Unsupported(format!("row {row} does not exist")))
    }

    /// Reads the key value of a row, `None` if it does not exist (deleted or
    /// never inserted).  The execution paths use this so a row deleted
    /// between an index probe and the heap fetch is skipped, not an error.
    pub fn try_datum(&self, row: RowId) -> StorageResult<Option<Datum>> {
        self.try_datum_hinted(row, AccessHint::Normal)
    }

    /// [`Table::try_datum`] with an explicit buffer-pool [`AccessHint`].
    /// Row-at-a-time scan loops (the sequential scan, index builds) pass
    /// [`AccessHint::Scan`] so their one-touch heap pages stay out of the
    /// pool's protected set.
    fn try_datum_hinted(&self, row: RowId, hint: AccessHint) -> StorageResult<Option<Datum>> {
        let inner = self.inner.read();
        let Some(rid) = inner.rows.get(row as usize).copied().flatten() else {
            return Ok(None);
        };
        Datum::from_bytes(&inner.heap.get_hinted(rid, hint)?).map(Some)
    }

    /// Builds a physical index described by `spec` over the existing heap
    /// rows (`CREATE INDEX`).  DDL: requires exclusive access to the table.
    ///
    /// On an already-populated table the build routes through one heap scan
    /// and [`SpIndex::bulk_build`](spgist_indexes::SpIndex::bulk_build) —
    /// the paper's `spgistbuild` pipeline — instead of N planner-visible
    /// inserts: every tree node is partitioned top-down and written exactly
    /// once.  The same scan seeds the planner's statistics with the
    /// **exact** live distinct-key count, replacing whatever session-local
    /// approximation had accumulated (first step on the planner-statistics
    /// roadmap item), and the build's own `TreeStats` seed the planner's
    /// page-height memo, so the first query plans without a tree walk.
    pub fn create_index(&mut self, name: &str, spec: IndexSpec) -> StorageResult<()> {
        if spec.key_type() != self.key_type {
            return Err(StorageError::Unsupported(format!(
                "index {name:?} ({}) cannot serve table {:?} of type {}",
                spec.key_type().name(),
                self.name,
                self.key_type.name()
            )));
        }
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(StorageError::Unsupported(format!(
                "index {name:?} already exists on table {:?}",
                self.name
            )));
        }
        let index = spec.create(Arc::clone(&self.pool))?;
        let row_count = self.inner.read().rows.len() as RowId;
        let mut items: Vec<(Datum, RowId)> = Vec::new();
        for row in 0..row_count {
            // The build scan touches every heap page exactly once.
            if let Some(datum) = self.try_datum_hinted(row, AccessHint::Scan)? {
                items.push((datum, row));
            }
        }
        if !items.is_empty() {
            // Seed exact planner statistics from the build scan: the scan
            // already visits every live key, so the distinct count stops
            // being a session-local approximation.
            let distinct: HashSet<Vec<u8>> =
                items.iter().map(|(datum, _)| datum.to_bytes()).collect();
            {
                let mut inner = self.inner.write();
                inner.distinct = distinct;
                inner.distinct_base = 0;
            }
        }
        // An empty build is a no-op that reports the empty tree's stats.
        let built = index.bulk_build(&items)?;
        let named = NamedIndex::new(name, spec, index);
        named.seed_height(&built);
        self.indexes.push(named);
        self.inner.get_mut().dirty.mutated = true;
        Ok(())
    }

    /// Drops a physical index, releasing its pages to the pager's free list;
    /// returns whether it existed.  DDL: requires exclusive access.
    pub fn drop_index(&mut self, name: &str) -> StorageResult<bool> {
        let Some(named) = self.detach_index(name) else {
            return Ok(false);
        };
        named.index.destroy()?;
        Ok(true)
    }

    /// Removes an index from the table *without* destroying it, so the
    /// durable DDL path can persist the index-less catalog first and free
    /// the pages only once the catalog no longer names them (re-attached on
    /// checkpoint failure).
    pub(crate) fn detach_index(&mut self, name: &str) -> Option<NamedIndex> {
        let pos = self.indexes.iter().position(|i| i.name == name)?;
        self.inner.get_mut().dirty.mutated = true;
        Some(self.indexes.remove(pos))
    }

    /// Re-attaches an index removed by [`Table::detach_index`].
    pub(crate) fn attach_index(&mut self, named: NamedIndex) {
        self.inner.get_mut().dirty.mutated = true;
        self.indexes.push(named);
    }

    /// Destroys the table, releasing its heap pages and every index's pages
    /// to the pager's free list (`DROP TABLE`).
    pub fn destroy(self) -> StorageResult<()> {
        for named in self.indexes {
            named.index.destroy()?;
        }
        self.inner.into_inner().heap.destroy()
    }

    /// Names of the physical indexes on this table.
    pub fn index_names(&self) -> Vec<&str> {
        self.indexes.iter().map(|i| i.name.as_str()).collect()
    }

    /// Planner statistics of the heap (the `pg_class` analog).
    pub fn table_stats(&self) -> TableStats {
        let inner = self.inner.read();
        TableStats {
            rows: inner.live_rows,
            heap_pages: (inner.heap.page_count() as u64).max(1),
            distinct_values: inner.distinct_base + inner.distinct.len() as u64,
        }
    }

    /// The planner's view of the physical indexes: each index's live page
    /// count (O(1), never stale) and its page height from the last
    /// `TreeStats` walk, re-walked only once the page count has doubled or
    /// halved since (see `NamedIndex::planner_stats`).  Writes leave
    /// planner state alone, so planning after a write reads no index page.
    pub fn available_indexes(&self) -> StorageResult<Vec<AvailableIndex>> {
        self.indexes
            .iter()
            .map(|named| {
                let (pages, page_height) = named.planner_stats()?;
                Ok(AvailableIndex {
                    name: named.name.clone(),
                    operator_class: named.spec.operator_class().to_string(),
                    pages,
                    page_height,
                })
            })
            .collect()
    }

    /// Plans `query` against this table without executing it (`EXPLAIN`):
    /// boolean predicate trees decompose into index scans, residual filters,
    /// row-id intersections/unions; `@@` leaves route through ordered scans;
    /// a `LIMIT` is pushed down over the whole plan.
    pub fn plan(&self, catalog: &Catalog, query: impl Into<Query>) -> StorageResult<AccessPath> {
        let query = query.into();
        Ok(planner::plan_query(&self.plan_context(catalog, &query)?, &query)?.access_path())
    }

    /// Plans and executes `query`, returning a streaming cursor over the
    /// matching `(row id, key)` pairs.
    ///
    /// The dispatch is driven entirely by the planner's choice; every
    /// operator streams, so a `LIMIT` (or a caller that stops pulling)
    /// cuts the work short instead of materializing the full result, and
    /// results are identical across access paths (keys are always resolved
    /// through the heap).
    pub fn query<'t>(
        &'t self,
        catalog: &Catalog,
        query: impl Into<Query>,
    ) -> StorageResult<ExecCursor<'t>> {
        check_wal_health(self.wal.as_deref())?;
        let query = query.into();
        let phys = planner::plan_query(&self.plan_context(catalog, &query)?, &query)?;
        let path = phys.access_path();
        let source = ScanSource::from(&path);
        let inner = self
            .execute_node(&phys)?
            .map(move |item| -> StorageResult<Option<(RowId, Datum)>> {
                let (row, datum) = item?;
                match datum {
                    Some(datum) => Ok(Some((row, datum))),
                    // A row deleted between the index probe and the heap
                    // fetch is skipped, not an error.
                    None => Ok(self.try_datum(row)?.map(|datum| (row, datum))),
                }
            })
            .filter_map(StorageResult::transpose);
        Ok(ExecCursor {
            path,
            source,
            inner: Box::new(inner),
        })
    }

    /// What the planner needs to plan `query` here: this table's statistics
    /// and indexes, once the predicate's key type is checked against the
    /// table's.
    fn plan_context<'c>(
        &self,
        catalog: &'c Catalog,
        query: &Query,
    ) -> StorageResult<PlanContext<'c>> {
        if let Some(kt) = query.predicate.key_type().filter(|&kt| kt != self.key_type) {
            return Err(StorageError::Unsupported(format!(
                "predicate over {} cannot run on table {:?} of type {}",
                kt.name(),
                self.name,
                self.key_type.name()
            )));
        }
        Ok(PlanContext {
            catalog,
            stats: self.table_stats(),
            available: self.available_indexes()?,
        })
    }

    // ------------------------------------------------------------------
    // Execution (physical operator tree → row stream)
    // ------------------------------------------------------------------

    fn named_index(&self, name: &str) -> StorageResult<&NamedIndex> {
        self.indexes.iter().find(|i| i.name == name).ok_or_else(|| {
            StorageError::Unsupported(format!("planner chose unknown index {name:?}"))
        })
    }

    /// Walks every live heap row lazily.  The row-id range is snapshotted at
    /// call time; each row is fetched under a short read latch, so rows
    /// deleted mid-scan are skipped and rows inserted mid-scan are unseen.
    fn heap_stream(&self) -> impl Iterator<Item = StorageResult<(RowId, Datum)>> + '_ {
        let row_count = self.inner.read().rows.len() as RowId;
        (0..row_count).filter_map(move |row| {
            // Serial seq scan: every heap page is one-touch traffic.
            self.try_datum_hinted(row, AccessHint::Scan)
                .map(|datum| datum.map(|datum| (row, datum)))
                .transpose()
        })
    }

    /// Turns one physical operator into its row stream.  Streams carry the
    /// key datum when the operator already fetched it, so downstream
    /// operators and the cursor never read the heap twice for one row.
    fn execute_node<'t>(&'t self, node: &PhysNode) -> StorageResult<RowStream<'t>> {
        match node {
            PhysNode::SeqScan {
                filter,
                order: Some(order),
                ..
            } => {
                // Ordered fallback: nothing can stream before the full
                // scan-and-sort (exactly what the cost model charges for).
                let mut rows: Vec<(f64, RowId, Datum)> = Vec::new();
                for item in self.heap_stream() {
                    let (row, datum) = item?;
                    if filter.matches(&datum) {
                        rows.push((order.distance(&datum), row, datum));
                    }
                }
                rows.sort_by(|a, b| a.0.total_cmp(&b.0));
                let inner = rows
                    .into_iter()
                    .map(|(_, row, datum)| Ok((row, Some(datum))));
                Ok(Box::new(inner))
            }
            PhysNode::SeqScan {
                filter,
                order: None,
                ..
            } => {
                let filter = filter.clone();
                let inner = self.heap_stream().filter_map(move |item| match item {
                    Err(e) => Some(Err(e)),
                    Ok((row, datum)) if filter.matches(&datum) => Some(Ok((row, Some(datum)))),
                    Ok(_) => None,
                });
                Ok(Box::new(inner))
            }
            PhysNode::IndexScan { index, leaf, .. } => {
                let rows = self.named_index(index)?.index.scan(leaf)?;
                Ok(Box::new(rows.map(|item| item.map(|row| (row, None)))))
            }
            PhysNode::OrderedScan { index, leaf, .. } => {
                let rows = self.named_index(index)?.index.ordered_scan(leaf)?;
                Ok(Box::new(rows.map(|item| item.map(|row| (row, None)))))
            }
            PhysNode::Filter {
                input, residual, ..
            } => {
                let residual = residual.clone();
                let inner = self
                    .execute_node(input)?
                    .map(
                        move |item| -> StorageResult<Option<(RowId, Option<Datum>)>> {
                            let (row, datum) = item?;
                            let datum = match datum {
                                Some(datum) => datum,
                                // Deleted while the scan ran: skip the row.
                                None => match self.try_datum(row)? {
                                    Some(datum) => datum,
                                    None => return Ok(None),
                                },
                            };
                            Ok(residual
                                .iter()
                                .all(|p| p.matches(&datum))
                                .then_some((row, Some(datum))))
                        },
                    )
                    .filter_map(StorageResult::transpose);
                Ok(Box::new(inner))
            }
            PhysNode::Intersect { inputs, .. } => {
                let (first, rest) = inputs
                    .split_first()
                    .ok_or_else(|| StorageError::Unsupported("empty intersection plan".into()))?;
                // Materialize every non-driving row-id set (ids only — no
                // heap fetches) before opening the driver cursor.  Cursors
                // pin a reclamation epoch rather than a latch, so nothing
                // can deadlock here any more; draining and dropping each
                // input before the next opens still keeps at most one epoch
                // pinned at a time, so writers' retired pages reclaim
                // promptly even under long intersections.
                let mut sets: Vec<HashSet<RowId>> = Vec::with_capacity(rest.len());
                for node in rest {
                    let mut set = HashSet::new();
                    for item in self.execute_node(node)? {
                        set.insert(item?.0);
                    }
                    sets.push(set);
                }
                let inner = self.execute_node(first)?.filter(move |item| match item {
                    Ok((row, _)) => sets.iter().all(|set| set.contains(row)),
                    Err(_) => true,
                });
                Ok(Box::new(inner))
            }
            PhysNode::Union { inputs, .. } => {
                // Each input's cursor opens only when the previous one is
                // exhausted and dropped.  Cursors pin a reclamation epoch
                // rather than a latch, so opening several at once can no
                // longer deadlock against a writer — sequencing them is now
                // purely about keeping one epoch pinned at a time so
                // writers' retired pages reclaim promptly.
                let mut pending = inputs.clone().into_iter();
                let mut current: Option<RowStream<'t>> = None;
                let chained = std::iter::from_fn(move || loop {
                    if let Some(stream) = current.as_mut() {
                        if let Some(item) = stream.next() {
                            return Some(item);
                        }
                        current = None; // epoch pin released before the next opens
                    }
                    let node = pending.next()?;
                    match self.execute_node(&node) {
                        Ok(stream) => current = Some(stream),
                        Err(e) => return Some(Err(e)),
                    }
                })
                .map(|item| item.map(|(row, datum)| (datum, row)));
                // Deduplicated by row id while streaming (one disjunct's
                // rows may satisfy another disjunct too).
                let inner = spgist_indexes::Cursor::deduplicated(chained)
                    .map(|item| item.map(|(datum, row)| (row, datum)));
                Ok(Box::new(inner))
            }
            PhysNode::Limit { input, k } => Ok(Box::new(self.execute_node(input)?.take(*k))),
        }
    }
}

/// Fails when the database's write-ahead log has been poisoned by an I/O
/// failure.  At that point the in-memory state may be ahead of stable
/// storage with no way to close the gap (the flusher is dead), so queries
/// and new transactions are refused rather than hand out rows whose
/// durability is unknown; DML is already rejected by `Wal::submit`.
/// Reopening the database recovers to the acknowledged-durable state.
pub(crate) fn check_wal_health(wal: Option<&Wal>) -> StorageResult<()> {
    match wal {
        Some(wal) => wal.health().map_err(|e| {
            StorageError::Io(std::io::Error::other(format!(
                "database failed after a write-ahead log error \
                 (reopen to recover): {e}"
            )))
        }),
        None => Ok(()),
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("key_type", &self.key_type)
            .field("rows", &self.len())
            .field("indexes", &self.index_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgist_indexes::geom::Point;
    use spgist_indexes::query::StringQuery;

    /// The `i`-th of the deterministic five-letter words over a small
    /// alphabet.
    fn word(mut i: usize) -> String {
        (0..5)
            .map(|_| {
                let c = char::from(b'a' + (i % 7) as u8);
                i /= 7;
                c
            })
            .collect()
    }

    fn word_table(n: usize) -> Database {
        let mut db = Database::in_memory();
        db.create_table("words", KeyType::Varchar).unwrap();
        let table = db.table_mut("words").unwrap();
        for i in 0..n {
            table.insert(word(i)).unwrap();
        }
        db
    }

    #[test]
    fn seq_scan_answers_queries_without_any_index() {
        let db = word_table(500);
        let cursor = db.query("words", Predicate::str_prefix("ab")).unwrap();
        assert_eq!(cursor.source(), &ScanSource::Heap);
        let rows = cursor.rows().unwrap();
        assert!(!rows.is_empty());
        for &row in &rows {
            let Datum::Text(word) = db.table("words").unwrap().datum(row).unwrap() else {
                panic!("non-text datum in a varchar table");
            };
            assert!(word.starts_with("ab"));
        }
    }

    #[test]
    fn index_scan_and_seq_scan_return_identical_rows() {
        let mut db = word_table(4000);
        // Plan before the index exists: sequential scan.
        let seq_rows = {
            let cursor = db.query("words", Predicate::str_regex("a?a?a")).unwrap();
            assert_eq!(cursor.source(), &ScanSource::Heap);
            let mut rows = cursor.rows().unwrap();
            rows.sort_unstable();
            rows
        };
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let cursor = db.query("words", Predicate::str_regex("a?a?a")).unwrap();
        assert_eq!(
            cursor.source(),
            &ScanSource::Index {
                name: "words_trie".into()
            },
            "a selective regex over 4000 rows must route to the trie"
        );
        let mut idx_rows = cursor.rows().unwrap();
        idx_rows.sort_unstable();
        assert_eq!(idx_rows, seq_rows);
        assert!(!idx_rows.is_empty());
    }

    #[test]
    fn insert_many_matches_a_loop_of_inserts() {
        let mut looped = Database::in_memory();
        looped.create_table("words", KeyType::Varchar).unwrap();
        let mut batched = Database::in_memory();
        batched.create_table("words", KeyType::Varchar).unwrap();
        batched
            .table_mut("words")
            .unwrap()
            .create_index("t", IndexSpec::Trie)
            .unwrap();
        looped
            .table_mut("words")
            .unwrap()
            .create_index("t", IndexSpec::Trie)
            .unwrap();

        let data = ["space", "spade", "star", "space", "blue"];
        let loop_rows: Vec<RowId> = data
            .iter()
            .map(|w| looped.table("words").unwrap().insert(*w).unwrap())
            .collect();
        let batch_rows = batched
            .table("words")
            .unwrap()
            .insert_many(data.iter().copied())
            .unwrap();
        assert_eq!(batch_rows, loop_rows, "row ids assigned in input order");
        for probe in ["space", "blue", "zzz"] {
            assert_eq!(
                batched
                    .query("words", Predicate::str_equals(probe))
                    .unwrap()
                    .rows()
                    .unwrap(),
                looped
                    .query("words", Predicate::str_equals(probe))
                    .unwrap()
                    .rows()
                    .unwrap(),
                "probe {probe}"
            );
        }
        // Type mismatches are rejected before anything lands; empty batches
        // are a no-op.
        assert!(batched
            .table("words")
            .unwrap()
            .insert_many([Datum::Point(Point::new(1.0, 2.0))])
            .is_err());
        assert_eq!(batched.table("words").unwrap().len(), 5);
        assert!(batched
            .table("words")
            .unwrap()
            .insert_many(Vec::<Datum>::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn create_index_seeds_exact_distinct_statistics() {
        let mut db = Database::in_memory();
        db.create_table("words", KeyType::Varchar).unwrap();
        let table = db.table_mut("words").unwrap();
        // 40 rows over 10 distinct values, with deletions: the session
        // approximation (insert-time set, deletions ignored) drifts from the
        // live truth.
        for i in 0..40 {
            table.insert(format!("w{}", i % 10)).unwrap();
        }
        for row in 0..4 {
            // Deletes every copy of "w0" .. leaves 9 live distinct values.
            table.delete(row * 10).unwrap();
        }
        assert_eq!(
            table.table_stats().distinct_values,
            10,
            "the running approximation ignores deletions"
        );
        table.create_index("t", IndexSpec::Trie).unwrap();
        assert_eq!(
            table.table_stats().distinct_values,
            9,
            "the bulk-build scan seeds the exact live distinct count"
        );
    }

    #[test]
    fn create_index_backfills_existing_rows() {
        let mut db = word_table(3000);
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let available = db.table("words").unwrap().available_indexes().unwrap();
        assert_eq!(available.len(), 1);
        assert_eq!(available[0].operator_class, "SP_GiST_trie");
        assert!(
            available[0].pages > 0,
            "stats must come from the built tree"
        );
        assert!(available[0].page_height > 0);
    }

    /// The live page count of every index on `table`, as a full
    /// [`TreeStats`] walk reports it.
    fn walked_pages(table: &Table) -> Vec<u64> {
        table
            .indexes
            .iter()
            .map(|named| named.index.stats().unwrap().pages)
            .collect()
    }

    #[test]
    fn planning_after_writes_reads_no_index_pages() {
        let mut db = word_table(3000);
        {
            let table = db.table_mut("words").unwrap();
            table.create_index("words_trie", IndexSpec::Trie).unwrap();
            table
                .create_index("words_suffix", IndexSpec::SuffixTree)
                .unwrap();
        }
        let table = db.table("words").unwrap();
        let queries = [
            Predicate::str_prefix("ab"),
            Predicate::str_substring("cd"),
            Predicate::str_prefix("a").and(Predicate::str_substring("b")),
        ];
        for step in 0..50u64 {
            if step % 2 == 0 {
                // Long, novel words so the trees keep allocating pages.
                table
                    .insert(format!("zz{step:04}{}", "q".repeat(40)))
                    .unwrap();
            } else {
                table.delete(step * 37).unwrap();
            }
            for query in &queries {
                let before = db.pool().stats();
                table.plan(db.catalog(), query).unwrap();
                let delta = db.pool().stats().delta_since(&before);
                assert_eq!(
                    delta.logical_reads, 0,
                    "planning {query:?} after write {step} touched the pool"
                );
            }
            let planned: Vec<u64> = table
                .available_indexes()
                .unwrap()
                .iter()
                .map(|index| index.pages)
                .collect();
            assert_eq!(planned, walked_pages(table), "after write {step}");
        }
    }

    #[test]
    fn planner_page_height_follows_growth() {
        let mut db = Database::in_memory();
        db.create_table("words", KeyType::Varchar).unwrap();
        let table = db.table_mut("words").unwrap();
        table.create_index("words_trie", IndexSpec::Trie).unwrap();
        let memo = |table: &Table| table.indexes[0].height.lock().unwrap();
        assert_eq!(memo(table), (0, 0), "seeded by the empty build");
        let mut next = 0u64;
        let mut insert_until = |table: &Table, pages: u64| {
            while table.indexes[0].index.page_count() < pages {
                table.insert(format!("{next:08}-{}", next % 97)).unwrap();
                next += 1;
            }
        };
        insert_until(table, 2);
        table.available_indexes().unwrap();
        let (first_walk, first_height) = memo(table);
        assert_eq!(first_walk, 2, "the first plan past the seed walks");
        // Up to 2x the walked count the memo stands, even though the tree
        // has meanwhile grown a page level.
        insert_until(table, first_walk * 2);
        let stale = table.available_indexes().unwrap()[0].page_height;
        assert_eq!(stale, first_height);
        assert!(table.indexes[0].index.stats().unwrap().max_page_height > first_height);
        // Past 2x, planning re-derives the height from one walk.
        insert_until(table, first_walk * 2 + 1);
        let planned = table.available_indexes().unwrap()[0].clone();
        let walked = table.indexes[0].index.stats().unwrap();
        assert_eq!(planned.pages, walked.pages);
        assert_eq!(planned.page_height, walked.max_page_height);
        assert_eq!(memo(table), (walked.pages, walked.max_page_height));
    }

    #[test]
    fn table_delete_removes_the_row_from_heap_and_indexes() {
        let mut db = word_table(2000);
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let probe = {
            let Datum::Text(w) = db.table("words").unwrap().datum(123).unwrap() else {
                panic!("non-text datum");
            };
            w
        };
        let before = db
            .query("words", Predicate::str_equals(&probe))
            .unwrap()
            .rows()
            .unwrap();
        assert!(before.contains(&123));
        assert!(db.table_mut("words").unwrap().delete(123).unwrap());
        assert!(!db.table_mut("words").unwrap().delete(123).unwrap());
        let after = db
            .query("words", Predicate::str_equals(&probe))
            .unwrap()
            .rows()
            .unwrap();
        assert!(!after.contains(&123));
    }

    #[test]
    fn type_mismatches_are_rejected_not_panicked() {
        let mut db = word_table(10);
        let table = db.table_mut("words").unwrap();
        assert!(table.insert(Point::new(1.0, 2.0)).is_err());
        assert!(table.create_index("kd", IndexSpec::KdTree).is_err());
        assert!(db
            .plan("words", Predicate::point_equals(Point::new(1.0, 2.0)))
            .is_err());
        assert!(db.query("missing", Predicate::str_equals("x")).is_err());
        // Mixed-type predicate trees cannot run on any single-column table.
        let mixed = Predicate::str_prefix("a").and(Predicate::point_equals(Point::new(0.0, 0.0)));
        assert!(db.plan("words", &mixed).is_err());
        // `@@` leaves are only meaningful as the whole predicate or a single
        // top-level conjunct.
        assert!(db
            .plan(
                "words",
                Predicate::str_nearest("abc").or(Predicate::str_equals("x"))
            )
            .is_err());
        assert!(db
            .plan("words", Predicate::str_nearest("abc").negate())
            .is_err());
        assert!(db
            .plan(
                "words",
                Predicate::str_nearest("a").and(Predicate::str_nearest("b"))
            )
            .is_err());
        // As the whole predicate it plans fine (sorted heap fallback here).
        assert!(db
            .plan("words", Predicate::Str(StringQuery::Nearest("abc".into())))
            .is_ok());
    }

    #[test]
    fn run_parallel_matches_serial_execution() {
        let mut db = word_table(3000);
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let queries: Vec<Query> = ["a", "b", "ab", "ba", "ccc", "zzzz"]
            .iter()
            .map(|p| Query::new(Predicate::str_prefix(p)))
            .collect();
        let serial: Vec<Vec<RowId>> = queries
            .iter()
            .map(|q| db.query("words", q).unwrap().rows().unwrap())
            .collect();
        for threads in [1, 2, 4, 9] {
            assert_eq!(
                db.run_parallel("words", &queries, threads).unwrap(),
                serial,
                "batch results are deterministic at {threads} threads"
            );
        }
    }

    #[test]
    fn drop_index_and_drop_table_release_pages() {
        let mut db = word_table(2000);
        let before_free = db.pool().free_page_count();
        db.table_mut("words")
            .unwrap()
            .create_index("t", IndexSpec::Trie)
            .unwrap();
        assert!(db.table_mut("words").unwrap().drop_index("t").unwrap());
        assert!(
            !db.table_mut("words").unwrap().drop_index("t").unwrap(),
            "second drop finds nothing"
        );
        let freed_after_index = db.pool().free_page_count();
        assert!(
            freed_after_index > before_free,
            "dropping the index must return its pages"
        );
        assert!(db.drop_table("words").unwrap());
        assert!(!db.drop_table("words").unwrap());
        assert!(
            db.pool().free_page_count() > freed_after_index,
            "dropping the table must return its heap pages"
        );
        // A rebuilt same-sized table is served from the recycled pages.
        let pages = db.pool().page_count();
        db.create_table("words2", KeyType::Varchar).unwrap();
        let table = db.table_mut("words2").unwrap();
        for i in 0..2000u32 {
            table.insert(format!("word{i:05}")).unwrap();
        }
        assert_eq!(
            db.pool().page_count(),
            pages,
            "the file must not grow while freed pages last"
        );
    }

    #[test]
    fn ddl_requires_exclusive_access() {
        let mut db = word_table(10);
        let handle = db.table_handle("words").unwrap();
        assert!(
            db.table_mut("words").is_none(),
            "DDL access denied while a handle is outstanding"
        );
        assert!(db.drop_table("words").is_err());
        assert!(db.table("words").is_some(), "refused drop leaves the table");
        // DML through the shared handle still works.
        handle.insert("concurrent").unwrap();
        assert_eq!(handle.len(), 11);
        drop(handle);
        assert!(db.table_mut("words").is_some());
        assert!(db.drop_table("words").unwrap());
        assert!(db.table("words").is_none());
    }

    #[test]
    fn durable_database_reopens_tables_and_indexes() {
        let dir = std::env::temp_dir().join(format!("spgist-exec-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        {
            let mut db = Database::create(&path).unwrap();
            assert!(db.is_durable());
            db.create_table("words", KeyType::Varchar).unwrap();
            // Enough rows that the planner routes selective predicates to
            // the index instead of the (honestly cheaper on tiny tables)
            // sequential scan.
            for i in 0..3000 {
                db.table_mut("words").unwrap().insert(word(i)).unwrap();
            }
            for w in ["space", "spade", "star", "blue"] {
                db.table_mut("words").unwrap().insert(w).unwrap();
            }
            db.create_index("words", "words_trie", IndexSpec::Trie)
                .unwrap();
            db.create_table("pts", KeyType::Point).unwrap();
            db.table_mut("pts")
                .unwrap()
                .insert(Point::new(3.0, 4.0))
                .unwrap();
            db.close().unwrap();
        }
        {
            let mut db = Database::open(&path).unwrap();
            assert_eq!(
                db.table("words").unwrap().index_names(),
                vec!["words_trie"],
                "indexes restore from the catalog"
            );
            assert_eq!(db.table("words").unwrap().len(), 3004);
            assert_eq!(db.table("pts").unwrap().len(), 1);
            let cursor = db.query("words", Predicate::str_prefix("sp")).unwrap();
            assert!(
                cursor.source().scans_index("words_trie"),
                "reopened index serves queries"
            );
            let rows = cursor.rows().unwrap();
            assert_eq!(rows.len(), 2);
            // The database stays fully operational: DML, DDL, drop.
            db.table_handle("words").unwrap().insert("spark").unwrap();
            assert_eq!(
                db.query("words", Predicate::str_prefix("sp"))
                    .unwrap()
                    .rows()
                    .unwrap()
                    .len(),
                3
            );
            assert!(db.drop_index("words", "words_trie").unwrap());
            assert!(db.drop_table("words").unwrap());
            db.close().unwrap();
        }
        {
            // Third generation sees the second generation's DDL.
            let db = Database::open(&path).unwrap();
            assert!(db.table("words").is_none(), "dropped table stays dropped");
            assert_eq!(db.table("pts").unwrap().len(), 1);
        }
        // Creating over an existing database is refused, not a silent wipe.
        assert!(
            Database::create(&path).is_err(),
            "create must refuse to overwrite an existing database file"
        );
        assert_eq!(
            Database::open(&path).unwrap().table("pts").unwrap().len(),
            1,
            "the refused create must leave the file untouched"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_database_is_not_durable_but_fully_functional() {
        let mut db = word_table(100);
        assert!(!db.is_durable());
        db.checkpoint().unwrap();
        db.create_index("words", "t", IndexSpec::Trie).unwrap();
        assert!(db.drop_index("words", "t").unwrap());
        assert!(!db.drop_index("words", "t").unwrap());
        assert!(db.create_index("missing", "t", IndexSpec::Trie).is_err());
        let handle = db.table_handle("words").unwrap();
        assert!(
            db.create_index("words", "t", IndexSpec::Trie).is_err(),
            "DDL refused while handles are outstanding"
        );
        drop(handle);
    }

    #[test]
    fn cursor_streams_lazily() {
        let mut db = word_table(3000);
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        let mut cursor = db.query("words", Predicate::str_prefix("a")).unwrap();
        // Pulling a single item must work without draining the cursor.
        let first = cursor.next().unwrap().unwrap();
        let Datum::Text(word) = first.1 else {
            panic!("non-text datum");
        };
        assert!(word.starts_with('a'));
    }

    #[test]
    fn txn_commit_keeps_rows_and_abort_undoes_them() {
        let db = word_table(10);
        let mut txn = db.begin().unwrap();
        let r1 = txn.insert("words", "alpha").unwrap();
        let r2 = txn.insert("words", "bravo").unwrap();
        assert_eq!((r1, r2), (10, 11));
        assert_eq!(txn.statement_count(), 2);
        // Statements are visible immediately: transactions provide
        // atomicity + durability, not isolation.
        assert_eq!(db.table("words").unwrap().len(), 12);
        txn.commit().unwrap();
        assert_eq!(db.table("words").unwrap().len(), 12);

        let mut txn = db.begin().unwrap();
        txn.insert("words", "gone").unwrap();
        txn.insert_many("words", ["x", "y", "z"]).unwrap();
        assert_eq!(db.table("words").unwrap().len(), 16);
        txn.abort().unwrap();
        assert_eq!(
            db.table("words").unwrap().len(),
            12,
            "abort removes every row the transaction inserted"
        );
    }

    #[test]
    fn aborted_insert_leaves_a_dead_row_id() {
        let db = word_table(5);
        let mut txn = db.begin().unwrap();
        let dead = txn.insert("words", "ghost").unwrap();
        txn.abort().unwrap();
        // The row id burned by the aborted insert is never reused: row ids
        // stay deterministic across replay, which tombstones loser inserts.
        let live = db.table("words").unwrap().insert("alive").unwrap();
        assert_eq!(live, dead + 1);
        assert!(db.table("words").unwrap().datum(dead).is_err());
    }

    #[test]
    fn txn_delete_abort_restores_datum_at_same_row() {
        let db = word_table(10);
        let before = db.table("words").unwrap().datum(3).unwrap();
        let mut txn = db.begin().unwrap();
        assert!(txn.delete("words", 3).unwrap());
        assert!(db.table("words").unwrap().datum(3).is_err());
        // Deleting a row that is already gone is not an error.
        assert!(!txn.delete("words", 3).unwrap());
        txn.abort().unwrap();
        assert_eq!(
            db.table("words").unwrap().datum(3).unwrap(),
            before,
            "abort re-inserts the deleted datum at its original row id"
        );
    }

    #[test]
    fn txn_undo_runs_in_reverse_order() {
        let db = word_table(4);
        let mut txn = db.begin().unwrap();
        // Delete row 2, then insert; undo must first remove the insert and
        // then restore row 2, leaving exactly the original table.
        assert!(txn.delete("words", 2).unwrap());
        txn.insert("words", "fresh").unwrap();
        drop(txn); // dropping an uncommitted transaction rolls it back
        let t = db.table("words").unwrap();
        assert_eq!(t.len(), 4);
        for row in 0..4 {
            assert!(t.datum(row).is_ok(), "row {row} must survive rollback");
        }
    }

    #[test]
    fn txn_ids_are_distinct_and_missing_table_errors() {
        let db = word_table(1);
        let a = db.begin().unwrap();
        let b = db.begin().unwrap();
        assert_ne!(a.id(), b.id());
        let mut c = db.begin().unwrap();
        assert!(c.insert("missing", "x").is_err());
        assert_eq!(c.statement_count(), 0, "a failed statement logs nothing");
        a.commit().unwrap();
        b.abort().unwrap();
        c.commit().unwrap();
    }

    #[test]
    fn checkpoint_refuses_while_a_transaction_is_leaked_open() {
        let mut db = word_table(2);
        db.checkpoint().unwrap();
        let mut txn = db.begin().unwrap();
        txn.insert("words", "uncommitted").unwrap();
        // Simulate a crash: the transaction vanishes without commit or
        // rollback, leaving its registration in place.
        txn.crash_for_test();
        let err = db.checkpoint().unwrap_err();
        assert!(
            matches!(err, StorageError::OpenTransactions(1)),
            "no-steal checkpoint must refuse with the typed variant: {err}"
        );
        assert!(
            err.to_string().contains("open transaction"),
            "no-steal checkpoint must refuse to persist uncommitted work: {err}"
        );
    }

    #[test]
    fn durable_txn_commit_survives_reopen_and_abort_does_not() {
        let dir = std::env::temp_dir().join(format!("spgist-exec-txn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        let dead;
        {
            let mut db = Database::create(&path).unwrap();
            db.create_table("words", KeyType::Varchar).unwrap();
            let mut txn = db.begin().unwrap();
            txn.insert("words", "committed-a").unwrap();
            txn.insert("words", "committed-b").unwrap();
            txn.commit().unwrap();
            let mut txn = db.begin().unwrap();
            dead = txn.insert("words", "aborted").unwrap();
            txn.abort().unwrap();
            db.close().unwrap();
        }
        {
            let db = Database::open(&path).unwrap();
            let t = db.table("words").unwrap();
            assert_eq!(t.len(), 2, "only the committed transaction's rows survive");
            assert!(t.datum(dead).is_err(), "the aborted row stays dead");
            // The dead slot still burns its row id after reopen.
            assert_eq!(t.insert("later").unwrap(), dead + 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_open_txn_is_a_loser_after_unclean_shutdown() {
        let dir = std::env::temp_dir().join(format!("spgist-exec-loser-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.pages");
        {
            let mut db = Database::create(&path).unwrap();
            db.create_table("words", KeyType::Varchar).unwrap();
            db.table_mut("words").unwrap().insert("auto-0").unwrap();
            let mut txn = db.begin().unwrap();
            txn.insert("words", "loser-1").unwrap();
            txn.insert("words", "loser-2").unwrap();
            // Interleave an auto-commit write so loser tombstones must keep
            // later row ids aligned during replay.
            db.table("words").unwrap().insert("auto-3").unwrap();
            let mut txn2 = db.begin().unwrap();
            txn2.insert("words", "winner-4").unwrap();
            txn2.commit().unwrap();
            txn.crash_for_test();
            // Crash without close(): drop(db) drains the WAL flusher, so
            // every submitted record is on disk — but no CommitTxn for the
            // first transaction ever was.
        }
        {
            let db = Database::open(&path).unwrap();
            let t = db.table("words").unwrap();
            assert_eq!(t.datum(0).unwrap(), Datum::Text("auto-0".into()));
            assert!(t.datum(1).is_err(), "loser insert dropped");
            assert!(t.datum(2).is_err(), "loser insert dropped");
            assert_eq!(t.datum(3).unwrap(), Datum::Text("auto-3".into()));
            assert_eq!(t.datum(4).unwrap(), Datum::Text("winner-4".into()));
            assert_eq!(t.len(), 3, "two auto-commit rows plus the winner");
            // Row-id determinism: the next insert lands after the tombstones.
            assert_eq!(t.insert("next").unwrap(), 5);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `VARCHAR` table with a trie and a suffix tree, both kept by DML.
    fn two_index_table() -> Table {
        let mut table = Table::create("words", KeyType::Varchar, BufferPool::in_memory()).unwrap();
        table.create_index("trie", IndexSpec::Trie).unwrap();
        table.create_index("suffix", IndexSpec::SuffixTree).unwrap();
        table
    }

    /// The rows equal to `word` through each index of `table`, in index
    /// order.
    fn rows_via_each_index(table: &Table, word: &str) -> Vec<Vec<RowId>> {
        table
            .indexes
            .iter()
            .map(|named| {
                let mut rows = named
                    .index
                    .scan(&Predicate::str_equals(word))
                    .unwrap()
                    .collect::<StorageResult<Vec<_>>>()
                    .unwrap();
                rows.sort_unstable();
                rows
            })
            .collect()
    }

    #[test]
    fn replay_insert_skips_applies_or_rejects_by_row_position() {
        for batch in [1usize, 3] {
            let table = two_index_table();
            let records = |tag: &str| -> Vec<Vec<u8>> {
                (0..batch)
                    .map(|i| Datum::from(format!("{tag}{i}")).to_bytes())
                    .collect()
            };
            // Rows 0..batch stand in for the checkpoint image.
            table
                .insert_many((0..batch).map(|i| format!("image{i}")))
                .unwrap();
            let end = batch as RowId;

            // Already in the image: a no-op.
            table.replay_insert(0, &records("stale")).unwrap();
            assert_eq!(table.len(), end, "batch {batch}");
            assert_eq!(table.datum(0).unwrap(), Datum::from("image0"));
            assert_eq!(rows_via_each_index(&table, "stale0"), vec![vec![]; 2]);

            // Starting exactly at the row-directory end: applied, and
            // visible through every index.
            table.replay_insert(end, &records("fresh")).unwrap();
            assert_eq!(table.len(), 2 * end, "batch {batch}");
            for i in 0..batch {
                let row = end + i as RowId;
                let word = format!("fresh{i}");
                assert_eq!(table.datum(row).unwrap(), Datum::from(word.as_str()));
                assert_eq!(rows_via_each_index(&table, &word), vec![vec![row]; 2]);
            }

            // A gap past the end: corruption naming the table, nothing
            // applied.
            match table.replay_insert(2 * end + 1, &records("gap")) {
                Err(StorageError::Corrupt(msg)) => {
                    assert!(msg.contains("gap") && msg.contains("\"words\""), "{msg}")
                }
                other => panic!("batch {batch}: expected Corrupt, got {other:?}"),
            }
            assert_eq!(table.len(), 2 * end, "batch {batch}");
            assert_eq!(rows_via_each_index(&table, "gap0"), vec![vec![]; 2]);
        }
    }

    #[test]
    fn datums_with_trailing_bytes_are_rejected_on_replay_and_heap_reads() {
        let table = two_index_table();
        let mut record = Datum::from("word").to_bytes();
        record.push(0);
        let err = table.replay_insert(0, std::slice::from_ref(&record));
        assert!(matches!(err, Err(StorageError::Decode(_))), "{err:?}");
        assert_eq!(table.len(), 0, "a rejected replay applies nothing");
        // The same bytes on a heap page: every read of the row fails.
        table.inner.write().place(0, record).unwrap();
        assert!(matches!(table.try_datum(0), Err(StorageError::Decode(_))));
        assert!(matches!(table.delete(0), Err(StorageError::Decode(_))));
        assert_eq!(table.len(), 1, "a failed delete leaves the row live");
    }

    #[test]
    fn undo_delete_leaves_a_live_slot_untouched() {
        let table = two_index_table();
        let row = table.insert("orig").unwrap();
        let (deleted, _) = table.delete_logged(row, AUTOCOMMIT).unwrap();
        table.undo_delete(row, &deleted.unwrap()).unwrap();
        let heap_records = table.inner.read().heap.record_count();

        // The slot is live again: a second undo for it must not overwrite
        // the row, add a heap record or index the other value.
        table.undo_delete(row, &Datum::from("other")).unwrap();
        // Never allocated: nothing to restore either.
        table.undo_delete(row + 1, &Datum::from("other")).unwrap();

        assert_eq!(table.datum(row).unwrap(), Datum::from("orig"));
        assert_eq!(table.len(), 1);
        assert_eq!(table.inner.read().heap.record_count(), heap_records);
        assert_eq!(rows_via_each_index(&table, "orig"), vec![vec![row]; 2]);
        assert_eq!(rows_via_each_index(&table, "other"), vec![vec![]; 2]);
    }
}
