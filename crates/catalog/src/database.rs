//! The [`Database`] facade: constructors, durable open with write-ahead-log
//! replay, checkpoints, DDL, and the query entry points that route to a
//! table.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use spgist_core::RowId;
use spgist_storage::{
    journal, BufferPool, BufferPoolConfig, CheckpointStats, FilePager, MemPager, PageId,
    StorageError, StorageResult,
};
use spgist_wal::{TxnId, Wal, WalConfig, WalRecord, AUTOCOMMIT};

use crate::am::Catalog;
use crate::datum::{KeyType, Query};
use crate::durable::{self, CatalogLayout, TableSnapshot};
use crate::exec::{check_wal_health, ExecCursor, Table};
use crate::index::IndexSpec;
use crate::planner::AccessPath;
use crate::txn::Transaction;

/// The top-level facade: a catalog, a shared buffer pool and named tables.
///
/// Tables live behind `Arc`s: [`Database::table_handle`] clones out a
/// `Send + Sync` handle for concurrent DML and queries on other threads,
/// while [`Database::table_mut`] grants the exclusive access DDL needs (and
/// fails while handles are outstanding).
///
/// ```
/// use spgist_catalog::exec::{Database, IndexSpec, KeyType, Predicate};
///
/// let mut db = Database::in_memory();
/// db.create_table("words", KeyType::Varchar).unwrap();
/// let table = db.table_mut("words").unwrap();
/// table.insert("space").unwrap();
/// table.insert("spade").unwrap();
/// table.create_index("words_trie", IndexSpec::Trie).unwrap();
/// let rows = db
///     .query("words", &Predicate::str_prefix("sp"))
///     .unwrap()
///     .rows()
///     .unwrap();
/// assert_eq!(rows.len(), 2);
/// ```
pub struct Database {
    catalog: Catalog,
    pool: Arc<BufferPool>,
    tables: BTreeMap<String, Arc<Table>>,
    /// On-disk layout of the chunked catalog (which pages hold the root,
    /// each table's metadata, and each row/heap chunk) when this database
    /// is durable (created with [`Database::create`] or
    /// [`Database::open`]); `None` for in-memory databases, whose DDL
    /// skips catalog persistence.
    layout: Option<CatalogLayout>,
    /// Running checkpoint counters (chunks written/skipped, bytes, quiesce
    /// time) — the incremental-checkpoint analog of the pool's `IoStats`.
    ckpt_stats: CheckpointStats,
    /// The write-ahead log of a durable database.  Every acknowledged DML
    /// statement has its redo record fsynced here before the call returns;
    /// [`Database::open`] replays records past the catalog's checkpoint
    /// LSN, so acknowledged writes survive a crash — even dropping the
    /// database without [`Database::close`] loses nothing acknowledged.
    wal: Option<Arc<Wal>>,
    /// Checkpoint pre-image journal path of a durable database
    /// (`<wal prefix>.ckpt`).  [`Database::checkpoint`] journals the
    /// on-disk image of every page it is about to overwrite before the
    /// first in-place write; [`Database::open`] rolls a surviving journal
    /// back, so a crash anywhere inside a checkpoint recovers the exact
    /// previous checkpoint plus the still-un-pruned log.
    journal: Option<PathBuf>,
    /// Next transaction id to hand out.  Seeded past the largest id
    /// surviving in the log at open, so a new transaction can never collide
    /// with records of an older incarnation still awaiting pruning (a
    /// collision would let an old `CommitTxn` adopt a new loser's
    /// statements during a later replay).
    next_txn: AtomicU64,
    /// Number of open [`Transaction`] handles.  The checkpoint protocol
    /// refuses to run while this is nonzero: the pool is no-steal, and a
    /// checkpoint taken mid-transaction would flush uncommitted work into
    /// the data file *and* cut the log below the records recovery needs to
    /// drop it.  In safe code the borrow checker already forbids the
    /// combination (`begin` borrows the database shared, `checkpoint` needs
    /// it exclusively); the counter keeps the invariant enforced for
    /// test-only escape hatches like [`Transaction::crash_for_test`].
    pub(crate) open_txns: AtomicU64,
}

/// WAL segment file prefix for the database at `path`: segments are
/// `<path>.wal.<seq>` siblings of the database file.
fn wal_prefix(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// Checkpoint pre-image journal path for the log at `wal_path`:
/// `<wal_path>.ckpt`, a sibling of the segments (the non-numeric suffix
/// keeps it out of the segment scan).
fn journal_path(wal_path: &Path) -> PathBuf {
    let mut os = wal_path.as_os_str().to_os_string();
    os.push(".ckpt");
    PathBuf::from(os)
}

impl Database {
    /// A database on an in-memory buffer pool with the paper's catalog
    /// registrations.
    pub fn in_memory() -> Self {
        Self::with_pool(BufferPool::in_memory())
    }

    /// [`Database::in_memory`] with an explicit buffer-pool configuration —
    /// the in-memory counterpart of [`Database::create_with_config`].
    ///
    /// A bounded capacity makes eviction observable at in-memory speeds, so
    /// an eviction-bounded bulk build (a `CREATE INDEX` whose working set
    /// exceeds the pool) can be demonstrated without a file.
    pub fn in_memory_with_config(config: BufferPoolConfig) -> Self {
        Self::with_pool(Arc::new(BufferPool::new(Arc::new(MemPager::new()), config)))
    }

    /// A database over an explicit buffer pool (e.g. file-backed).  The
    /// database is *not* durable — its catalog lives only in memory; use
    /// [`Database::create`] / [`Database::open`] for a reopenable database.
    pub fn with_pool(pool: Arc<BufferPool>) -> Self {
        Self::new(pool, None, None)
    }

    /// A database with the paper's catalog and no tables over `pool`:
    /// durable when `layout` is given.  The write-ahead log, the tables
    /// and the first transaction id are filled in by the caller.
    fn new(pool: Arc<BufferPool>, layout: Option<CatalogLayout>, journal: Option<PathBuf>) -> Self {
        Database {
            catalog: Catalog::with_paper_defaults(),
            pool,
            tables: BTreeMap::new(),
            layout,
            wal: None,
            journal,
            next_txn: AtomicU64::new(1),
            open_txns: AtomicU64::new(0),
            ckpt_stats: CheckpointStats::default(),
        }
    }

    /// Creates a durable database in a fresh file at `path`, with a
    /// write-ahead log in `<path>.wal.*` siblings.  The catalog meta-table
    /// is rooted at the file's first logical page and written through on
    /// every DDL statement; every acknowledged DML statement is fsynced to
    /// the log before its call returns, so a reopen after a crash recovers
    /// it (see [`Database::open`]).
    pub fn create<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        Self::create_with_config(path, BufferPoolConfig::default())
    }

    /// [`Database::create`] with an explicit buffer-pool configuration.
    ///
    /// Refuses to overwrite an existing file: creating where a database
    /// already lives would silently destroy it — open it with
    /// [`Database::open`] or delete the file first.
    pub fn create_with_config<P: AsRef<Path>>(
        path: P,
        config: BufferPoolConfig,
    ) -> StorageResult<Self> {
        Self::create_with_wal_config(path, config, WalConfig::default())
    }

    /// [`Database::create_with_config`] with an explicit WAL configuration
    /// (group-commit window, batch bound, segment size) — the knobs the
    /// commit-throughput experiments turn.
    pub fn create_with_wal_config<P: AsRef<Path>>(
        path: P,
        config: BufferPoolConfig,
        wal_config: WalConfig,
    ) -> StorageResult<Self> {
        let path = path.as_ref();
        if path.exists() {
            return Err(StorageError::Unsupported(format!(
                "refusing to create database over existing file {path:?}; \
                 open it with Database::open or remove it first"
            )));
        }
        let pager = Arc::new(FilePager::create(path)?);
        Self::create_with_pager(pager, wal_prefix(path), config, wal_config)
    }

    /// Creates a durable database over an arbitrary pager — the hook the
    /// crash-recovery suites use to interpose a fault-injection pager
    /// (`spgist_storage::FaultPager`) between the executor and the file.
    /// WAL segments are created at `<wal_path>.<seq>`; the log always
    /// writes its own files directly (its fsyncs are the commit point and
    /// cannot go through a pager that might lie about them).
    pub fn create_with_pager(
        pager: Arc<dyn spgist_storage::Pager>,
        wal_path: impl AsRef<Path>,
        config: BufferPoolConfig,
        wal_config: WalConfig,
    ) -> StorageResult<Self> {
        // Durable databases run the pool in no-steal mode: between
        // checkpoints no data page reaches the file, so after a crash the
        // file holds exactly the state the log's replay starts from.
        let config = BufferPoolConfig {
            steal: false,
            ..config
        };
        // A stale journal from a previous database at this path must be
        // deleted, not rolled back: it holds that database's pages, and
        // the file underneath is fresh.
        let journal = journal_path(wal_path.as_ref());
        journal::discard(&journal)?;
        let pool = Arc::new(BufferPool::new(pager, config));
        let root = pool.allocate_page()?;
        if root != durable::CATALOG_ROOT {
            return Err(StorageError::Corrupt(format!(
                "fresh database file allocated page {root} first, expected the catalog root"
            )));
        }
        let wal = Arc::new(Wal::create(wal_path, wal_config)?);
        let mut db = Self::new(pool, Some(CatalogLayout::new_at_root(root)), Some(journal));
        db.wal = Some(wal);
        db.checkpoint()?;
        Ok(db)
    }

    /// Opens a previously created database file, restoring **all** tables
    /// and indexes from the durable catalog with zero rebuild scans — and
    /// then replaying the write-ahead log past the catalog's checkpoint
    /// LSN, so every statement that was acknowledged before a crash (or an
    /// unclosed drop) is back, exactly once.
    ///
    /// Fails with [`StorageError::Corrupt`] when the file is not a database
    /// file, was written by an incompatible version, or is torn past what
    /// crash recovery can explain (a torn *tail* on the last log segment is
    /// normal — that record was never acknowledged — but damage below the
    /// durable horizon is not); a corrupt database is never silently
    /// misread into wrong rows.
    pub fn open<P: AsRef<Path>>(path: P) -> StorageResult<Self> {
        Self::open_with_config(path, BufferPoolConfig::default())
    }

    /// [`Database::open`] with an explicit buffer-pool configuration.
    pub fn open_with_config<P: AsRef<Path>>(
        path: P,
        config: BufferPoolConfig,
    ) -> StorageResult<Self> {
        let path = path.as_ref();
        let pager = Arc::new(FilePager::open(path)?);
        Self::open_with_pager(pager, wal_prefix(path), config, WalConfig::default())
    }

    /// Opens a durable database over an arbitrary pager (the
    /// fault-injection counterpart of [`Database::create_with_pager`]).
    pub fn open_with_pager(
        pager: Arc<dyn spgist_storage::Pager>,
        wal_path: impl AsRef<Path>,
        config: BufferPoolConfig,
        wal_config: WalConfig,
    ) -> StorageResult<Self> {
        let config = BufferPoolConfig {
            steal: false,
            ..config
        };
        // A surviving checkpoint journal means the last checkpoint may be
        // torn — an arbitrary subset of its in-place page writes may have
        // hit the platter.  Roll every journaled pre-image back *before*
        // reading the catalog: that restores the exact previous checkpoint
        // image, and the log (un-pruned — pruning happens after the
        // journal is deleted) replays everything acknowledged since.
        let journal = journal_path(wal_path.as_ref());
        journal::recover(&journal, pager.as_ref())?;
        let pool = Arc::new(BufferPool::new(pager, config));
        let (persisted, layout) = durable::read_catalog(&pool)?;
        let mut tables = BTreeMap::new();
        for pt in &persisted.tables {
            let table = Table::from_persisted(Arc::clone(&pool), pt).map_err(|e| {
                StorageError::Corrupt(format!("table {:?} does not reopen: {e}", pt.name))
            })?;
            tables.insert(pt.name.clone(), Arc::new(table));
        }
        let (wal, records) = Wal::open(wal_path, wal_config, persisted.checkpoint_lsn)?;
        let wal = Arc::new(wal);
        // Pass 1 over the surviving records: which transactions have a
        // durable `CommitTxn`?  Everything else is a *loser* — the crash
        // (or an explicit abort) got there before the commit point — and
        // none of its statements may apply.  Pass 2 below still walks the
        // records in LSN order, because row ids were assigned in execution
        // order across transactions; a loser's inserts are replayed as dead
        // row-directory slots so every later record's ids line up.
        let winners: HashSet<TxnId> = records
            .iter()
            .filter_map(|(_, record)| match record {
                WalRecord::CommitTxn { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let max_txn = records
            .iter()
            .map(|(_, record)| record.txn())
            .max()
            .unwrap_or(AUTOCOMMIT);
        // Replay runs with the log detached so the re-executed statements
        // are not logged again.
        let mut db = Self::new(pool, Some(layout), Some(journal));
        db.tables = tables;
        db.next_txn = AtomicU64::new(max_txn + 1);
        let replayed = records.len();
        for (lsn, record) in records {
            db.replay_record(record, &winners).map_err(|e| {
                StorageError::Corrupt(format!("WAL replay failed at lsn {lsn}: {e}"))
            })?;
        }
        db.wal = Some(Arc::clone(&wal));
        for table in db.tables.values_mut() {
            Arc::get_mut(table)
                .expect("tables are exclusively owned during open")
                .attach_wal(Arc::clone(&wal));
        }
        if replayed > 0 {
            // Fold the replayed tail into a fresh checkpoint so the log
            // shrinks instead of being replayed again (and again) across
            // reopens.
            db.checkpoint()?;
        }
        Ok(db)
    }

    /// Applies one recovered redo record.  Each case is idempotent against
    /// the checkpoint image (the log cut can overlap it — see
    /// [`Database::checkpoint`]): DML verifies row-id positions, DDL checks
    /// existence before re-executing.
    ///
    /// `winners` is the set of transactions whose `CommitTxn` survived in
    /// the log.  A DML record of any other transaction is a *loser*: its
    /// insert only allocates dead row-id slots (keeping later ids aligned)
    /// and its delete is skipped outright — none of its changes, and no
    /// index entries, reach the recovered state.
    fn replay_record(&mut self, record: WalRecord, winners: &HashSet<TxnId>) -> StorageResult<()> {
        let missing = |table: &str| {
            StorageError::Corrupt(format!("WAL record names unknown table {table:?}"))
        };
        let committed = |txn: TxnId| txn == AUTOCOMMIT || winners.contains(&txn);
        match record {
            WalRecord::Insert {
                table,
                row,
                datum,
                txn,
            } => {
                let t = self.tables.get(&table).ok_or_else(|| missing(&table))?;
                if committed(txn) {
                    t.replay_insert(row, std::slice::from_ref(&datum))
                } else {
                    t.replay_loser_insert(row, 1)
                }
            }
            WalRecord::InsertMany {
                table,
                first_row,
                datums,
                txn,
            } => {
                let t = self.tables.get(&table).ok_or_else(|| missing(&table))?;
                if committed(txn) {
                    t.replay_insert(first_row, &datums)
                } else {
                    t.replay_loser_insert(first_row, datums.len() as u64)
                }
            }
            WalRecord::Delete { table, row, txn } => {
                let t = self.tables.get(&table).ok_or_else(|| missing(&table))?;
                if committed(txn) {
                    t.delete(row).map(|_| ())
                } else {
                    // A loser's delete never happened: the row stays (the
                    // live abort path restored it via undo before the
                    // crash, or the crash itself pre-empted the delete's
                    // commit).
                    Ok(())
                }
            }
            // Transaction control records carry no state of their own;
            // their effect is the winner/loser split computed in pass 1.
            WalRecord::BeginTxn { .. }
            | WalRecord::CommitTxn { .. }
            | WalRecord::AbortTxn { .. } => Ok(()),
            WalRecord::CreateTable { table, key_type } => {
                if self.tables.contains_key(&table) {
                    return Ok(()); // already in the checkpoint image
                }
                let t =
                    Table::create(&table, KeyType::from_tag(key_type)?, Arc::clone(&self.pool))?;
                self.tables.insert(table, Arc::new(t));
                Ok(())
            }
            WalRecord::DropTable { table } => {
                let Some(t) = self.tables.remove(&table) else {
                    return Ok(());
                };
                Arc::try_unwrap(t)
                    .expect("tables are exclusively owned during replay")
                    .destroy()
            }
            WalRecord::CreateIndex { table, index, spec } => {
                let spec = IndexSpec::decode_spec(&spec)?;
                let t = self.tables.get_mut(&table).ok_or_else(|| missing(&table))?;
                let t = Arc::get_mut(t).expect("tables are exclusively owned during replay");
                if t.index_names().contains(&index.as_str()) {
                    return Ok(());
                }
                t.create_index(&index, spec)
            }
            WalRecord::DropIndex { table, index } => {
                let t = self.tables.get_mut(&table).ok_or_else(|| missing(&table))?;
                Arc::get_mut(t)
                    .expect("tables are exclusively owned during replay")
                    .drop_index(&index)
                    .map(|_| ())
            }
        }
    }

    /// True when this database persists its catalog to a file (created with
    /// [`Database::create`] / [`Database::open`]).
    pub fn is_durable(&self) -> bool {
        self.layout.is_some()
    }

    /// Persists the catalog delta since the last checkpoint — mutated
    /// tables' metadata and dirty row/heap chunks; an untouched table costs
    /// zero page writes — flushes the dirty data pages to stable storage,
    /// and **truncates the write-ahead log** up to the checkpoint.  A no-op
    /// for in-memory databases.
    ///
    /// The protocol (same shape as the pre-v3 full rewrite, with the write
    /// sets shrunk to what changed):
    ///
    /// 1. **Quiesce.**  Every table's DML lock is taken, but only for the
    ///    *in-memory* part of the checkpoint: the log cut, the per-table
    ///    dirty-chunk snapshots, and a memcpy of the dirty data pages.  No
    ///    statement can be half-applied (a heap page without its index
    ///    updates, half an index split) in the images being snapshotted.
    ///    The guards drop before any disk I/O — writers stall for the
    ///    snapshot, not for the fsyncs.
    /// 2. **Rotate.**  The log is rotated; `cut` = everything appended so
    ///    far becomes durable and sealed, and (thanks to step 1) every
    ///    record below the cut is fully reflected in the snapshots.
    /// 3. **Journal.**  The current *on-disk* image of every page about to
    ///    be overwritten in place (the snapshotted data pages + the catalog
    ///    pages the delta reuses) is written to the pre-image journal
    ///    (`<wal prefix>.ckpt`) and synced.  From here until step 6 a crash
    ///    recovers by rolling the journal back — restoring the exact
    ///    previous checkpoint — and replaying the un-pruned log.  Reading
    ///    pre-images from the pager after the guards dropped is sound: the
    ///    pool is no-steal, so nothing reaches the file between step 4 of
    ///    the previous checkpoint and step 4 of this one.
    /// 4. **Flush data, sync.**  The *snapshot* images are written and
    ///    synced — not the live frames, which concurrent DML may already
    ///    have advanced past the log cut (their referenced pages would not
    ///    be flushed, tearing the checkpoint).  A frame re-dirtied since
    ///    the snapshot keeps its dirty flag and ships with the next
    ///    checkpoint.  Data lands *before* any catalog write, so a torn
    ///    crash can never persist a catalog that claims `checkpoint_lsn =
    ///    cut` over data pages that do not reflect it.
    /// 5. **Write catalog delta, sync.**  Dirty chunks are rewritten in
    ///    place (relocated only when a segment grows), mutated tables'
    ///    metadata and the root are rewritten, and exactly those pages are
    ///    flushed.
    /// 6. **Commit.**  The journal is deleted — the checkpoint is now the
    ///    recovery point.  Only then are deferred page frees published
    ///    (rollback would re-expose their contents) and sealed log
    ///    segments below the cut pruned.
    ///
    /// A crash anywhere before step 6 recovers from the previous
    /// checkpoint plus the un-pruned log: nothing acknowledged is lost,
    /// checkpointing is *purely* a log-truncation (and reopen-speed)
    /// optimization.  [`Database::checkpoint_stats`] reports what each
    /// checkpoint wrote and skipped.
    pub fn checkpoint(&mut self) -> StorageResult<()> {
        // No-steal quiesce: uncommitted transactional work must never reach
        // the data file.  `&mut self` already guarantees no `Transaction`
        // borrow is live; this guard catches the test-only crash-simulation
        // escape hatch, which leaks its registration on purpose.
        let open = self.open_txns.load(Ordering::SeqCst) as usize;
        if open != 0 {
            return Err(StorageError::OpenTransactions(open));
        }
        if self.layout.is_none() {
            return Ok(());
        }

        // Steps 1-2: the quiesce window — log cut and in-memory snapshots
        // under every table's DML guard, no disk I/O.
        let quiesce_start = std::time::Instant::now();
        let guards: Vec<MutexGuard<'_, ()>> = self.tables.values().map(|t| t.dml_guard()).collect();
        let checkpoint_lsn = match &self.wal {
            Some(wal) => wal.rotate()?,
            None => 0,
        };
        let mut snaps: Vec<TableSnapshot> = Vec::new();
        let mut tables_skipped = 0u64;
        for table in self.tables.values() {
            match table.take_checkpoint_snapshot() {
                Some(snap) => snaps.push(snap),
                None => tables_skipped += 1,
            }
        }
        let data = self.pool.dirty_snapshot();
        drop(guards);
        let quiesce_nanos = quiesce_start.elapsed().as_nanos() as u64;

        match self.checkpoint_persist(&snaps, &data, checkpoint_lsn) {
            Ok((outcome, journal_bytes)) => {
                let stats = &mut self.ckpt_stats;
                stats.checkpoints += 1;
                stats.chunks_written += outcome.chunks_written;
                stats.chunks_skipped += outcome.chunks_skipped;
                stats.tables_skipped += tables_skipped;
                stats.catalog_bytes += outcome.bytes_written;
                stats.data_pages_flushed += data.len() as u64;
                stats.journal_bytes += journal_bytes;
                stats.quiesce_nanos += quiesce_nanos;
                Ok(())
            }
            Err(e) => {
                // The snapshots were consumed but the disk state is now in
                // doubt; make the next checkpoint rewrite the snapshotted
                // tables wholesale.  The journal survives with the original
                // pre-images (its old-wins merge keeps them across a
                // retry), so rollback still restores the last commit point.
                for snap in &snaps {
                    if let Some(table) = self.tables.get(&snap.name) {
                        table.mark_all_dirty();
                    }
                }
                Err(e)
            }
        }
    }

    /// Steps 3-6 of [`Database::checkpoint`]: journal → flush data → write
    /// catalog delta → flush catalog → delete journal → publish frees,
    /// prune log.  Runs after the quiesce guards have dropped.
    fn checkpoint_persist(
        &mut self,
        snaps: &[TableSnapshot],
        data: &spgist_storage::DirtyPageSnapshot,
        checkpoint_lsn: u64,
    ) -> StorageResult<(durable::CatalogWriteOutcome, u64)> {
        let layout = self
            .layout
            .as_mut()
            .expect("checkpoint_persist requires a durable database");
        let mut journal_bytes = 0;
        if let Some(journal) = &self.journal {
            // Journal the pre-images before the first in-place write.  The
            // ids are collected *before* the catalog update relocates any
            // segment; reads go through the pager (not the pool) to capture
            // the on-disk content.
            let mut ids: BTreeSet<PageId> = data.page_ids().into_iter().collect();
            ids.extend(durable::overwrite_targets(layout, snaps));
            journal_bytes = journal::write_pre_images(journal, self.pool.pager().as_ref(), ids)?;
        }
        self.pool.flush_snapshot(data)?;
        let live: BTreeSet<String> = self.tables.keys().cloned().collect();
        let outcome =
            durable::apply_catalog_update(&self.pool, layout, snaps, &live, checkpoint_lsn)?;
        self.pool.flush_pages_subset(&outcome.written_pages)?;
        if let Some(journal) = &self.journal {
            journal::discard(journal)?;
        }
        self.pool.publish_pending()?;
        if let Some(wal) = &self.wal {
            wal.prune(checkpoint_lsn)?;
        }
        Ok((outcome, journal_bytes))
    }

    /// A full-rewrite checkpoint: marks every table wholly dirty, so the
    /// incremental machinery rewrites the complete catalog — the pre-v3
    /// behavior.  Never needed for correctness; the `checkpoint` bench
    /// experiment uses it as the baseline incremental checkpoints are
    /// measured against.
    pub fn checkpoint_full(&mut self) -> StorageResult<()> {
        for table in self.tables.values() {
            table.mark_all_dirty();
        }
        self.checkpoint()
    }

    /// Running checkpoint counters — chunks written/skipped, catalog and
    /// journal bytes, quiesce time — next to the pool's
    /// [`IoStats`](spgist_storage::IoStats).  Counters accumulate across
    /// checkpoints; diff with [`CheckpointStats::delta_since`] to meter one.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.ckpt_stats
    }

    /// Checkpoints and consumes the database (clean shutdown).  A file
    /// closed this way reopens with [`Database::open`] restoring every
    /// table, row and index without any log replay.
    ///
    /// Dropping a durable database *without* closing it is safe too —
    /// acknowledged statements are recovered from the write-ahead log on
    /// the next open; closing just makes the reopen replay-free.
    pub fn close(mut self) -> StorageResult<()> {
        self.checkpoint()
    }

    /// Opens a multi-statement transaction.  Statements run through the
    /// returned [`Transaction`] handle are applied immediately (visible to
    /// concurrent readers — atomicity and durability, not isolation) but
    /// are **acknowledged only at [`Transaction::commit`]**: none of them
    /// waits for an fsync of its own, and a crash before the commit point
    /// erases all of them.  [`Transaction::abort`] (or dropping the handle)
    /// rolls every statement back via logical undo.
    ///
    /// DDL stays auto-commit and is not available through the handle; it
    /// needs `&mut Database`, which the borrow on the open transaction
    /// denies — so a checkpoint (which must not persist uncommitted work
    /// into the no-steal data file) can never run mid-transaction.
    ///
    /// Transactions work on in-memory databases too: same atomicity via
    /// undo, no durability (there is no log to commit into).
    pub fn begin(&self) -> StorageResult<Transaction<'_>> {
        // Fail fast on a poisoned log rather than at the first statement.
        check_wal_health(self.wal.as_deref())?;
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        Ok(Transaction::new(self, id))
    }

    /// The write-ahead log of a durable database (`None` in-memory):
    /// fsync/record counters for the bench harness, plus the durable-LSN
    /// watermark.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The system catalog (access methods and operator classes).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The shared buffer pool behind every table and index (exposes I/O
    /// accounting: `db.pool().stats()`).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Mutable catalog access — registering or dropping operator classes
    /// changes how subsequent queries are routed, without touching any
    /// physical index.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Appends a DDL redo record after the statement's write-through
    /// checkpoint succeeded.  The record is technically redundant with that
    /// checkpoint — replay only needs it when recovering from an *earlier*
    /// checkpoint (a later one failed or was torn), where its existence
    /// checks re-execute or skip it as the image requires.  Logged after
    /// the checkpoint so a rolled-back statement leaves no record behind.
    fn log_ddl(&self, record: WalRecord) -> StorageResult<()> {
        match &self.wal {
            Some(wal) => wal.append(&record).map(|_| ()),
            None => Ok(()),
        }
    }

    /// Creates an empty table with the given key type.  On a durable
    /// database the catalog update is written through (checkpointed) before
    /// returning; if the write-through fails, the in-memory table is rolled
    /// back so memory and disk never diverge.
    pub fn create_table(&mut self, name: &str, key_type: KeyType) -> StorageResult<()> {
        if self.tables.contains_key(name) {
            return Err(StorageError::Unsupported(format!(
                "table {name:?} already exists"
            )));
        }
        let mut table = Table::create(name, key_type, Arc::clone(&self.pool))?;
        if let Some(wal) = &self.wal {
            table.attach_wal(Arc::clone(wal));
        }
        self.tables.insert(name.to_string(), Arc::new(table));
        if let Err(e) = self.checkpoint() {
            // A fresh table owns no pages yet: dropping the entry is a
            // complete rollback, and a retry can succeed.
            self.tables.remove(name);
            return Err(e);
        }
        self.log_ddl(WalRecord::CreateTable {
            table: name.to_string(),
            key_type: key_type.tag(),
        })
    }

    /// Builds a physical index on the named table, backfilling it from the
    /// existing heap rows (`CREATE INDEX`).  DDL: fails while shared handles
    /// are outstanding.  On a durable database the catalog update is written
    /// through before returning; a failed write-through drops the
    /// just-built index again (releasing its pages) so memory and disk
    /// never diverge.
    pub fn create_index(&mut self, table: &str, index: &str, spec: IndexSpec) -> StorageResult<()> {
        self.table_ddl(table)?.create_index(index, spec)?;
        if let Err(e) = self.checkpoint() {
            if let Ok(t) = self.table_ddl(table) {
                let _ = t.drop_index(index);
            }
            return Err(e);
        }
        self.log_ddl(WalRecord::CreateIndex {
            table: table.to_string(),
            index: index.to_string(),
            spec: spec.encode_spec(),
        })
    }

    /// Drops a physical index from the named table, releasing its pages;
    /// returns whether it existed.  DDL: fails while shared handles are
    /// outstanding.  The index-less catalog is persisted *before* the pages
    /// are freed, so a crash in between merely leaks pages — the on-disk
    /// catalog can never name pages that were already handed back for
    /// reuse.  A failed write-through re-attaches the index.
    pub fn drop_index(&mut self, table: &str, index: &str) -> StorageResult<bool> {
        let Some(named) = self.table_ddl(table)?.detach_index(index) else {
            return Ok(false);
        };
        if let Err(e) = self.checkpoint() {
            self.table_ddl(table)?.attach_index(named);
            return Err(e);
        }
        self.log_ddl(WalRecord::DropIndex {
            table: table.to_string(),
            index: index.to_string(),
        })?;
        named.index.destroy()?;
        Ok(true)
    }

    /// Exclusive (DDL) access to a table, as a `StorageResult` (unlike
    /// [`Database::table_mut`], which collapses "missing" and "shared" into
    /// `None`).
    fn table_ddl(&mut self, name: &str) -> StorageResult<&mut Table> {
        let arc = self
            .tables
            .get_mut(name)
            .ok_or_else(|| StorageError::Unsupported(format!("no table named {name:?}")))?;
        Arc::get_mut(arc).ok_or_else(|| {
            StorageError::Unsupported(format!(
                "cannot run DDL on table {name:?} while shared handles are outstanding"
            ))
        })
    }

    /// Drops a table, releasing its heap pages and every index's pages to
    /// the pager's free list; returns whether it existed.  Fails while
    /// shared handles from [`Database::table_handle`] are outstanding
    /// (`AccessExclusiveLock` semantics).
    pub fn drop_table(&mut self, name: &str) -> StorageResult<bool> {
        let Some(table) = self.tables.remove(name) else {
            return Ok(false);
        };
        match Arc::try_unwrap(table) {
            Ok(table) => {
                // Persist the table-less catalog *before* destroying: if
                // the checkpoint fails the table is restored untouched, and
                // a crash after the checkpoint but before the destroy only
                // leaks the pages — the on-disk catalog never names pages
                // that were already freed for reuse.
                if let Err(e) = self.checkpoint() {
                    self.tables.insert(name.to_string(), Arc::new(table));
                    return Err(e);
                }
                self.log_ddl(WalRecord::DropTable {
                    table: name.to_string(),
                })?;
                table.destroy()?;
                Ok(true)
            }
            Err(table) => {
                // Put it back: dropping a shared table would pull pages out
                // from under live handles.
                self.tables.insert(name.to_string(), table);
                Err(StorageError::Unsupported(format!(
                    "cannot drop table {name:?} while shared handles are outstanding"
                )))
            }
        }
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Clones out a shared, `Send + Sync` handle on a table for concurrent
    /// DML and queries from other threads.
    pub fn table_handle(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).cloned()
    }

    /// Looks up a table for DDL (exclusive access).  `None` if the table
    /// does not exist *or* shared handles are outstanding.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name).and_then(Arc::get_mut)
    }

    fn table_or_err(&self, name: &str) -> StorageResult<&Table> {
        self.tables
            .get(name)
            .map(Arc::as_ref)
            .ok_or_else(|| StorageError::Unsupported(format!("no table named {name:?}")))
    }

    /// Plans `query` (a [`Query`] or bare
    /// [`Predicate`](crate::exec::Predicate)) against the named table
    /// (`EXPLAIN`).
    pub fn plan(&self, table: &str, query: impl Into<Query>) -> StorageResult<AccessPath> {
        self.table_or_err(table)?.plan(&self.catalog, query)
    }

    /// Plans and executes `query` (a [`Query`] or bare
    /// [`Predicate`](crate::exec::Predicate)) against the named table,
    /// returning a streaming cursor.
    pub fn query<'d>(
        &'d self,
        table: &str,
        query: impl Into<Query>,
    ) -> StorageResult<ExecCursor<'d>> {
        self.table_or_err(table)?.query(&self.catalog, query)
    }

    /// Plans and executes a batch of queries against the named table on a
    /// pool of `n_threads` scoped worker threads — the multi-threaded query
    /// driver.
    ///
    /// Workers pull queries from a shared counter (so skewed query costs
    /// balance out) and each result lands in its query's input position:
    /// the output is deterministic and identical to running the batch
    /// serially, whatever the interleaving.  Fails with the first error any
    /// query produced.
    pub fn run_parallel(
        &self,
        table: &str,
        queries: &[Query],
        n_threads: usize,
    ) -> StorageResult<Vec<Vec<RowId>>> {
        let table = self.table_or_err(table)?;
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<StorageResult<Vec<RowId>>>>> =
            queries.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..n_threads.clamp(1, queries.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(query) = queries.get(i) else { break };
                    let result = table.query(&self.catalog, query).and_then(ExecCursor::rows);
                    *slots[i].lock() = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every query slot is filled"))
            .collect()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .finish()
    }
}
