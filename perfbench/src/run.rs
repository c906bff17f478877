//! Drives one workload through the public `Database` API: set-up, the
//! measured phase, checkpoints, an unclean drop and recovery.  The traced
//! run uses the same code with a [`TraceLog`] attached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use spgist_catalog::{AccessPath, Database, Datum, ScanSource, WalConfig};
use spgist_storage::{BufferPoolConfig, CheckpointStats, FilePager, IoStats, StorageResult};

use crate::gen::{Read, ReadKind, Rng, Tab, Write};
use crate::model::Model;
use crate::trace::{PagerCounts, TimingPager};
use crate::workload::{self, Class, Mix, Spec};

/// What the untraced measurements collect.
#[derive(Debug, Default)]
pub struct Record {
    pub setup_s: Vec<f64>,
    /// `(kind, label, microseconds)` of every read.
    pub reads: Vec<(ReadKind, &'static str, f64)>,
    /// `(microseconds, rows acknowledged)` of every transaction or
    /// auto-commit statement.
    pub commits: Vec<(f64, f64)>,
    pub checkpoint_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    pub bytes_per_row: f64,
}

/// One acknowledged operation, in commit order, for the shadow replays.
#[derive(Debug, Clone)]
pub enum Logged {
    Read(Read),
    Insert(Tab, Datum, u64),
    Delete(Tab, Datum, u64),
}

/// Layer timings of one traced read.
#[derive(Debug, Clone)]
pub struct TracedRead {
    pub log_index: usize,
    pub kind: ReadKind,
    pub plan_us: f64,
    pub open_us: f64,
    pub drain_us: f64,
    pub rows: usize,
    pub estimated_rows: f64,
    pub seq_scan: bool,
    /// The index the executor scanned, if any.
    pub index: Option<String>,
    pub io: IoStats,
}

/// What the traced run records around each call into the engine.
#[derive(Default)]
pub struct TraceLog {
    /// The pager under the measured database (set when it is opened).
    pub pager: Option<Arc<TimingPager>>,
    pub log: Vec<Logged>,
    pub initial: Vec<(Tab, Vec<(u64, Datum)>)>,
    pub reads: Vec<TracedRead>,
    pub untraced_read_us: Vec<f64>,
    pub untraced_txn_us: Vec<f64>,
    pub traced_txn_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub commit_us: Vec<f64>,
    pub write_io: IoStats,
    pub rows_written: u64,
    pub commits: u64,
    pub checkpoints: Vec<(f64, CheckpointStats)>,
    pub wal_syncs: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    wal_bytes_mark: u64,
    pub frames_peak: usize,
    /// Pool and pager counters at the start of the measured phase.
    pub io_mark: IoStats,
    pub pager_mark: PagerCounts,
    /// Pool and pager activity from the start of the measured phase to
    /// the unclean drop.
    pub run_io: IoStats,
    pub run_pager: PagerCounts,
    /// WAL syncs of each commit: timing-dependent under group commit.
    pub syncs_per_commit: Vec<u64>,
    pub ops: u64,
    pub recovery_records: u64,
    pub recovery_pager: PagerCounts,
    /// Rows returned by traced reads, sampled for the heap micro replay.
    pub fetched_rows: Vec<(Tab, u64)>,
}

pub struct Runner {
    pub spec: Spec,
    pub dir: PathBuf,
    pub db: Option<Database>,
    pub model: Model,
    rng: Rng,
    pub rec: Record,
    pub trace: Option<TraceLog>,
    /// Whether the current round records layer timings.
    traced_round: bool,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    reads_done: u64,
    reads_issued: usize,
    pub pool_capacity: usize,
    pub data_pages: u64,
}

fn err<E: std::fmt::Debug>(e: E) -> String {
    format!("{e:?}")
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

fn db_file(dir: &Path) -> PathBuf {
    dir.join("bench.db")
}

/// `Database::open` derives its log path the same way.
fn wal_prefix(db: &Path) -> PathBuf {
    let mut os = db.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

/// Bytes in the database's WAL segment files.
fn wal_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name.contains(".wal.") && !name.ends_with(".ckpt")
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    if to.exists() {
        std::fs::remove_dir_all(to)?;
    }
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Estimated rows of a plan: selectivity × table rows, capped by a `LIMIT`.
fn estimated_rows(path: &AccessPath, table_rows: f64) -> f64 {
    match path {
        AccessPath::Limit { input, k } => estimated_rows(input, table_rows).min(*k as f64),
        AccessPath::SeqScan { cost }
        | AccessPath::IndexScan { cost, .. }
        | AccessPath::OrderedScan { cost, .. }
        | AccessPath::Filter { cost, .. }
        | AccessPath::Intersect { cost, .. }
        | AccessPath::Union { cost, .. } => cost.selectivity * table_rows,
    }
}

/// The first index a scan reads, if any.
fn scanned_index(source: &ScanSource) -> Option<String> {
    match source {
        ScanSource::Heap => None,
        ScanSource::Index { name } | ScanSource::OrderedIndex { name } => Some(name.clone()),
        ScanSource::Filter { input } | ScanSource::Limit { input } => scanned_index(input),
        ScanSource::Intersect { inputs } | ScanSource::Union { inputs } => {
            inputs.iter().find_map(scanned_index)
        }
    }
}

impl Runner {
    pub fn new(spec: Spec, dir: PathBuf, seed: u64) -> Self {
        Runner {
            spec,
            dir,
            db: None,
            model: Model::default(),
            rng: Rng::stream(seed, "ops"),
            rec: Record::default(),
            trace: None,
            traced_round: false,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            reads_done: 0,
            reads_issued: 0,
            pool_capacity: 0,
            data_pages: 0,
        }
    }

    fn db(&self) -> &Database {
        self.db.as_ref().expect("database is open")
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    fn pool_config(&self) -> BufferPoolConfig {
        BufferPoolConfig {
            capacity: self.pool_capacity,
            ..BufferPoolConfig::default()
        }
    }

    /// Creates the database, bulk-loads every table, builds every index
    /// and takes the first checkpoint: `reps` times, each in a fresh
    /// directory, keeping the last.  Then closes it and reopens it with the
    /// pool sized relative to the data pages.
    pub fn setup(&mut self, seed: u64, reps: usize) -> Result<(), String> {
        let data: Vec<Vec<Datum>> = self
            .spec
            .tables
            .iter()
            .map(|&(tab, rows)| workload::initial_rows(tab, rows, seed))
            .collect();
        let mut row_ids = Vec::new();
        for rep in 0..reps {
            let dir = self.dir.join(format!("setup{rep}"));
            std::fs::create_dir_all(&dir).map_err(err)?;
            let start = Instant::now();
            let mut db = Database::create(db_file(&dir)).map_err(err)?;
            row_ids.clear();
            for (&(tab, _), rows) in self.spec.tables.iter().zip(&data) {
                db.create_table(tab.name(), workload::key_type(tab))
                    .map_err(err)?;
                let table = db.table(tab.name()).expect("table just created");
                let mut ids = Vec::with_capacity(rows.len());
                for batch in rows.chunks(10_000) {
                    ids.extend(table.insert_many(batch.iter().cloned()).map_err(err)?);
                }
                row_ids.push(ids);
                for &class in Class::for_table(tab) {
                    db.create_index(tab.name(), &workload::index_name(tab, class), class.spec())
                        .map_err(err)?;
                }
            }
            db.checkpoint().map_err(err)?;
            self.rec.setup_s.push(start.elapsed().as_secs_f64());
            self.data_pages = u64::from(db.pool().page_count());
            db.close().map_err(err)?;
            if rep + 1 < reps {
                std::fs::remove_dir_all(&dir).map_err(err)?;
            } else {
                std::fs::rename(&dir, self.dir.join("live")).map_err(err)?;
            }
        }
        let tabs: Vec<Tab> = self.spec.tables.iter().map(|&(tab, _)| tab).collect();
        for ((tab, rows), ids) in tabs.into_iter().zip(data).zip(row_ids) {
            let model = self.model.table_mut(tab);
            let duplicates = rows
                .into_iter()
                .zip(ids)
                .filter(|(datum, row)| !model.insert(*row, datum.clone()))
                .count();
            self.attempted += 1;
            if duplicates > 0 {
                self.fail(format!(
                    "bulk load of {}: {duplicates} row ids assigned twice",
                    tab.name()
                ));
            }
        }
        self.pool_capacity =
            ((self.data_pages as f64 * self.spec.pool_ratio).ceil() as usize).max(16);
        let path = db_file(&self.dir.join("live"));
        let config = self.pool_config();
        let db = match &mut self.trace {
            None => Database::open_with_config(&path, config),
            Some(trace) => {
                let pager = Arc::new(TimingPager::new(FilePager::open(&path).map_err(err)?));
                trace.pager = Some(pager.clone());
                Database::open_with_pager(pager, wal_prefix(&path), config, WalConfig::default())
            }
        }
        .map_err(err)?;
        if let Some(trace) = &mut self.trace {
            trace.wal_bytes_mark = wal_size(&self.dir.join("live"));
            trace.initial = self
                .spec
                .tables
                .iter()
                .map(|&(tab, _)| {
                    let m = self.model.table(tab);
                    let rows = (0..m.row_ids())
                        .filter_map(|r| m.get(r).map(|d| (r, d.clone())))
                        .collect();
                    (tab, rows)
                })
                .collect();
        }
        self.db = Some(db);
        Ok(())
    }

    /// Runs untimed warm-up reads so the measured phase starts with the
    /// pool in its steady state.
    pub fn warm_up(&mut self, reads: usize) {
        if self.spec.pool_ratio >= 1.0 {
            // The pool holds the whole file: load every page once.
            let pool = self.db().pool();
            for id in 0..pool.page_count() {
                let _ = pool.with_page(id, |_| ());
            }
        }
        for _ in 0..reads {
            let read = self.next_read();
            let q = read.query();
            let db = self.db();
            let outcome = catch_unwind(AssertUnwindSafe(|| -> StorageResult<usize> {
                let mut n = 0;
                for item in db.query(read.table().name(), q)? {
                    item?;
                    n += 1;
                }
                Ok(n)
            }));
            self.attempted += 1;
            match outcome {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => self.fail(format!("warm-up {}: {e}", read.label())),
                Err(p) => self.fail(format!(
                    "warm-up {}: panic: {}",
                    read.label(),
                    panic_text(p)
                )),
            }
        }
    }

    /// Marks the start of the measured phase for the traced counters.
    pub fn begin_run(&mut self) {
        let io = self.db().pool().stats();
        if let Some(trace) = &mut self.trace {
            trace.io_mark = io;
            trace.pager_mark = trace.pager_counts();
        }
    }

    fn next_read(&mut self) -> Read {
        let nth = self.reads_issued;
        self.reads_issued += 1;
        match self.spec.mix {
            Mix::TextSearch { .. } => workload::text_read(&mut self.rng, &self.model, nth),
            // geo-ingest's probes read the points its writes just changed.
            Mix::GeoIngest { .. } => workload::geo_read(&mut self.rng, &self.model, nth, 3),
            Mix::GeoServe { .. } => workload::geo_read(&mut self.rng, &self.model, nth, 4),
        }
    }

    /// Runs `rounds` rounds of the workload's mix, each ending with a
    /// checkpoint.  Before the checkpoint of [`workload::RECOVERY_PROBES`]
    /// evenly spaced rounds of an untraced run, the files are copied as they
    /// stand (a crash image: the pool is no-steal and every acknowledged
    /// commit is in the log) and `Database::open` is timed on the copy, so
    /// recovery is sampled across the whole run.
    pub fn measure(&mut self, rounds: usize) {
        let probes = workload::RECOVERY_PROBES;
        for round in 0..rounds {
            self.set_round(round);
            match self.spec.mix {
                Mix::GeoServe { reads, txns } => {
                    for _ in 0..reads {
                        let read = self.next_read();
                        self.read(read);
                    }
                    for _ in 0..txns {
                        self.write_txn();
                    }
                }
                Mix::GeoIngest { txns } => {
                    for i in 0..txns {
                        self.write_txn();
                        if (i + 1) % workload::PROBE_EVERY == 0 {
                            let read = self.next_read();
                            self.read(read);
                        }
                    }
                }
                Mix::TextSearch { ops } => {
                    for i in 0..ops {
                        if (i + 1) % workload::TEXT_WRITE_EVERY == 0 {
                            let w = workload::write(
                                &mut self.rng,
                                &self.model,
                                &[Tab::Words],
                                &mut Vec::new(),
                            );
                            self.auto_commit(w);
                        } else {
                            let read = self.next_read();
                            self.read(read);
                        }
                    }
                }
            }
            if self.trace.is_none() && (round + 1) * probes / rounds > round * probes / rounds {
                self.recovery_probe();
            }
            self.checkpoint();
        }
    }

    fn recovery_probe(&mut self) {
        self.attempted += 1;
        let probe = self.dir.join("probe");
        if let Err(e) = copy_dir(&self.dir.join("live"), &probe) {
            return self.fail(format!("copying the crash image: {e}"));
        }
        let start = Instant::now();
        let opened = catch_unwind(AssertUnwindSafe(|| {
            Database::open_with_config(db_file(&probe), self.pool_config())
        }));
        let secs = start.elapsed().as_secs_f64();
        match opened {
            Ok(Ok(db)) => {
                self.rec.recover_s.push(secs);
                drop(db);
            }
            Ok(Err(e)) => self.fail(format!("recovery: {e}")),
            Err(p) => self.fail(format!("recovery: panic: {}", panic_text(p))),
        }
        let _ = std::fs::remove_dir_all(&probe);
    }

    fn set_round(&mut self, round: usize) {
        // The traced run alternates untraced and traced rounds (u t t u
        // u t t u ...), so the tracing overhead is measured on the same data
        // and pool state, with neither side always running on the larger
        // tree.
        self.traced_round = self.trace.is_some() && matches!(round % 4, 1 | 2);
    }

    fn write_txn(&mut self) {
        let tabs = self.spec.write_tables();
        let mut taken = Vec::new();
        let batch = (0..workload::TXN_STATEMENTS)
            .map(|_| workload::write(&mut self.rng, &self.model, &tabs, &mut taken))
            .collect();
        self.txn(batch);
    }

    /// One read query: planned, executed and drained through the public
    /// API; every [`workload::CHECK_EVERY`]-th answer is checked against the
    /// oracle after the clock stops.
    fn read(&mut self, read: Read) {
        self.attempted += 1;
        self.reads_done += 1;
        let check = self.reads_done.is_multiple_of(workload::CHECK_EVERY);
        let table = read.table().name();
        let query = read.query();
        let traced = self.traced_round;
        let db = self.db.as_ref().expect("database is open");
        let io0 = db.pool().stats();
        let mut layers = (0.0, 0.0, 0.0, 0.0, false, None);
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| -> StorageResult<Vec<(u64, Datum)>> {
            if traced {
                let t0 = Instant::now();
                let path = db.plan(table, query.clone())?;
                let t1 = Instant::now();
                let cursor = db.query(table, query)?;
                let t2 = Instant::now();
                let source = cursor.source().clone();
                let rows = cursor.collect::<StorageResult<Vec<_>>>()?;
                let t3 = Instant::now();
                let table_rows = db.table(table).map_or(0, |t| t.len()) as f64;
                layers = (
                    crate::stats::us(t1 - t0),
                    crate::stats::us(t2 - t1),
                    crate::stats::us(t3 - t2),
                    estimated_rows(&path, table_rows),
                    !path.uses_index(),
                    scanned_index(&source),
                );
                Ok(rows)
            } else {
                db.query(table, query)?.collect()
            }
        }));
        let elapsed = crate::stats::us(start.elapsed());
        let rows = match outcome {
            Ok(Ok(rows)) => rows,
            Ok(Err(e)) => return self.fail(format!("{}: {e}", read.label())),
            Err(p) => return self.fail(format!("{}: panic: {}", read.label(), panic_text(p))),
        };
        let io = db.pool().stats().delta_since(&io0);
        std::hint::black_box(&rows);
        if let Some(trace) = &mut self.trace {
            let index = trace.log.len();
            trace.log.push(Logged::Read(read.clone()));
            trace.ops += 1;
            trace.frames_peak = trace.frames_peak.max(db.pool().cached_pages());
            if traced {
                let (plan_us, open_us, drain_us, estimated_rows, seq_scan, scanned) = layers;
                if trace.fetched_rows.len() < 4000 {
                    trace
                        .fetched_rows
                        .extend(rows.iter().take(4).map(|(r, _)| (read.table(), *r)));
                }
                trace.reads.push(TracedRead {
                    log_index: index,
                    kind: read.kind(),
                    plan_us,
                    open_us,
                    drain_us,
                    rows: rows.len(),
                    estimated_rows,
                    seq_scan,
                    index: scanned,
                    io,
                });
            } else {
                trace.untraced_read_us.push(elapsed);
            }
        } else {
            self.rec.reads.push((read.kind(), read.label(), elapsed));
        }
        if check {
            if let Err(e) = self.model.check(&read, &rows) {
                self.fail(e);
            }
        }
    }

    /// One transaction, begin to `commit()` returning.
    fn txn(&mut self, batch: Vec<Write>) {
        let traced = self.traced_round;
        self.attempted += batch.len() as u64;
        let db = self.db.as_ref().expect("database is open");
        let io0 = db.pool().stats();
        let wal0 = db.wal().map(|w| (w.sync_count(), w.written_count()));
        let mut stmt_us: Vec<(bool, f64)> = Vec::new();
        let mut commit_us = 0.0;
        let model = &self.model;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<Logged>, String> {
            let mut tx = db.begin().map_err(err)?;
            let mut acks = Vec::with_capacity(batch.len());
            for w in &batch {
                let t0 = Instant::now();
                match w {
                    Write::Insert(tab, datum) => {
                        let row = tx.insert(tab.name(), datum.clone()).map_err(err)?;
                        acks.push(Logged::Insert(*tab, datum.clone(), row));
                        stmt_us.push((true, crate::stats::us(t0.elapsed())));
                    }
                    Write::Delete(tab, row) => {
                        if !tx.delete(tab.name(), *row).map_err(err)? {
                            return Err(format!("delete of live row {row} found nothing"));
                        }
                        let datum = model
                            .table(*tab)
                            .get(*row)
                            .cloned()
                            .expect("deleting a live row");
                        acks.push(Logged::Delete(*tab, datum, *row));
                        stmt_us.push((false, crate::stats::us(t0.elapsed())));
                    }
                }
            }
            let t0 = Instant::now();
            tx.commit().map_err(err)?;
            commit_us = crate::stats::us(t0.elapsed());
            Ok(acks)
        }));
        let elapsed = crate::stats::us(start.elapsed());
        let acks = match outcome {
            Ok(Ok(acks)) => acks,
            Ok(Err(e)) => return self.fail(format!("transaction: {e}")),
            Err(p) => return self.fail(format!("transaction: panic: {}", panic_text(p))),
        };
        let io = db.pool().stats().delta_since(&io0);
        let rows = acks.len() as f64;
        if let Some(trace) = &mut self.trace {
            trace.ops += acks.len() as u64;
            trace.rows_written += acks.len() as u64;
            trace.commits += 1;
            if let (Some(wal), Some((s0, w0))) = (db.wal(), wal0) {
                trace.wal_syncs += wal.sync_count() - s0;
                trace.wal_records += wal.written_count() - w0;
                trace.syncs_per_commit.push(wal.sync_count() - s0);
            }
            trace.write_io = add_io(&trace.write_io, &io);
            trace.frames_peak = trace.frames_peak.max(db.pool().cached_pages());
            if traced {
                for (insert, us) in stmt_us {
                    if insert {
                        trace.insert_us.push(us);
                    } else {
                        trace.delete_us.push(us);
                    }
                }
                trace.commit_us.push(commit_us);
                trace.traced_txn_us.push(elapsed);
            } else {
                trace.untraced_txn_us.push(elapsed);
            }
        } else {
            self.rec.commits.push((elapsed, rows));
        }
        self.apply(acks);
    }

    /// One auto-commit statement (its own commit point).
    fn auto_commit(&mut self, w: Write) {
        let traced = self.traced_round;
        self.attempted += 1;
        let db = self.db.as_ref().expect("database is open");
        let io0 = db.pool().stats();
        let wal0 = db.wal().map(|w| (w.sync_count(), w.written_count()));
        let model = &self.model;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Logged, String> {
            match &w {
                Write::Insert(tab, datum) => {
                    let table = db.table(tab.name()).ok_or("missing table")?;
                    let row = table.insert(datum.clone()).map_err(err)?;
                    Ok(Logged::Insert(*tab, datum.clone(), row))
                }
                Write::Delete(tab, row) => {
                    let table = db.table(tab.name()).ok_or("missing table")?;
                    if !table.delete(*row).map_err(err)? {
                        return Err(format!("delete of live row {row} found nothing"));
                    }
                    let datum = model
                        .table(*tab)
                        .get(*row)
                        .cloned()
                        .expect("deleting a live row");
                    Ok(Logged::Delete(*tab, datum, *row))
                }
            }
        }));
        let elapsed = crate::stats::us(start.elapsed());
        let ack = match outcome {
            Ok(Ok(ack)) => ack,
            Ok(Err(e)) => return self.fail(format!("auto-commit: {e}")),
            Err(p) => return self.fail(format!("auto-commit: panic: {}", panic_text(p))),
        };
        let io = db.pool().stats().delta_since(&io0);
        if let Some(trace) = &mut self.trace {
            trace.ops += 1;
            trace.rows_written += 1;
            trace.commits += 1;
            if let (Some(wal), Some((s0, w0))) = (db.wal(), wal0) {
                trace.wal_syncs += wal.sync_count() - s0;
                trace.wal_records += wal.written_count() - w0;
                trace.syncs_per_commit.push(wal.sync_count() - s0);
            }
            trace.write_io = add_io(&trace.write_io, &io);
            trace.frames_peak = trace.frames_peak.max(db.pool().cached_pages());
            if traced {
                // An auto-commit statement is its own commit: the statement
                // time is both its DML time and its commit time.
                match ack {
                    Logged::Insert(..) => trace.insert_us.push(elapsed),
                    _ => trace.delete_us.push(elapsed),
                }
                trace.commit_us.push(elapsed);
                trace.traced_txn_us.push(elapsed);
            } else {
                trace.untraced_txn_us.push(elapsed);
            }
        } else {
            self.rec.commits.push((elapsed, 1.0));
        }
        self.apply(vec![ack]);
    }

    fn apply(&mut self, acks: Vec<Logged>) {
        for ack in acks {
            match &ack {
                Logged::Insert(tab, datum, row) => {
                    if !self.model.table_mut(*tab).insert(*row, datum.clone()) {
                        self.fail(format!("{} row id {row} acknowledged twice", tab.name()));
                    }
                }
                Logged::Delete(tab, _, row) => {
                    self.model.table_mut(*tab).delete(*row);
                }
                Logged::Read(_) => {}
            }
            if let Some(trace) = &mut self.trace {
                trace.log.push(ack);
            }
        }
    }

    pub fn checkpoint(&mut self) {
        self.attempted += 1;
        let live = self.dir.join("live");
        let wal_before = self.trace.as_ref().map(|_| wal_size(&live));
        let db = self.db.as_mut().expect("database is open");
        let stats0 = db.checkpoint_stats();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| db.checkpoint()));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let delta = db.checkpoint_stats().delta_since(&stats0);
        match outcome {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return self.fail(format!("checkpoint: {e}")),
            Err(p) => return self.fail(format!("checkpoint: panic: {}", panic_text(p))),
        }
        match &mut self.trace {
            Some(trace) => {
                let before = wal_before.unwrap_or(0);
                trace.wal_bytes += before.saturating_sub(trace.wal_bytes_mark);
                trace.wal_bytes_mark = wal_size(&live);
                trace.checkpoints.push((ms, delta));
            }
            None => self.rec.checkpoint_ms.push(ms),
        }
    }

    /// Leaves a log tail past the last checkpoint, drops the database
    /// without `close()`, and times `Database::open` (with replay) on a copy
    /// of the crash image.  The reopened database stays open and is checked
    /// against the model.
    pub fn crash_and_recover(&mut self) -> Result<(), String> {
        let wal_cut = self.db().wal().map_or(0, |w| w.next_lsn());
        match self.spec.mix {
            Mix::TextSearch { .. } => {
                for _ in 0..workload::TAIL_WRITES {
                    let w =
                        workload::write(&mut self.rng, &self.model, &[Tab::Words], &mut Vec::new());
                    self.auto_commit(w);
                }
            }
            _ => {
                for _ in 0..workload::TAIL_TXNS {
                    self.write_txn();
                }
            }
        }
        let live = self.dir.join("live");
        if let Some(trace) = &mut self.trace {
            let db = self.db.as_ref().expect("database is open");
            trace.recovery_records = db.wal().map_or(0, |w| w.next_lsn()) - wal_cut;
            trace.wal_bytes += wal_size(&live).saturating_sub(trace.wal_bytes_mark);
            trace.run_io = db.pool().stats().delta_since(&trace.io_mark);
            trace.run_pager = trace.pager_counts().minus(&trace.pager_mark);
        }
        // The unclean drop: no close(), no final checkpoint.
        drop(self.db.take());
        let crash = self.dir.join("crash");
        copy_dir(&live, &crash).map_err(err)?;
        {
            let dir = self.dir.join("recovered");
            copy_dir(&crash, &dir).map_err(err)?;
            self.db = None;
            let path = db_file(&dir);
            self.attempted += 1;
            let start = Instant::now();
            let config = self.pool_config();
            let opened = match &mut self.trace {
                None => Database::open_with_config(&path, config),
                Some(trace) => {
                    let pager = Arc::new(TimingPager::new(FilePager::open(&path).map_err(err)?));
                    let db = Database::open_with_pager(
                        pager.clone(),
                        wal_prefix(&path),
                        config,
                        WalConfig::default(),
                    );
                    trace.recovery_pager = trace.recovery_pager.plus(&pager.counts());
                    db
                }
            };
            let secs = start.elapsed().as_secs_f64();
            match opened {
                Ok(db) => {
                    self.rec.recover_s.push(secs);
                    self.db = Some(db);
                }
                Err(e) => {
                    self.fail(format!("recovery: {e}"));
                    return Ok(());
                }
            }
        }
        self.verify_recovered();
        let size = std::fs::metadata(db_file(&self.dir.join("recovered")))
            .map(|m| m.len())
            .unwrap_or(0);
        self.rec.bytes_per_row = size as f64 / self.model.live_rows().max(1) as f64;
        Ok(())
    }

    /// Every acknowledged insert is back and every deleted row is gone.
    fn verify_recovered(&mut self) {
        let mut wrong = Vec::new();
        for (tab, model) in &self.model.tables {
            let Some(table) = self.db().table(tab.name()) else {
                wrong.push(format!("recovery lost table {}", tab.name()));
                continue;
            };
            if table.len() != model.live_count() as u64 {
                wrong.push(format!(
                    "recovered {} has {} rows, {} acknowledged",
                    tab.name(),
                    table.len(),
                    model.live_count()
                ));
            }
            for row in 0..model.row_ids() {
                let got = catch_unwind(AssertUnwindSafe(|| table.try_datum(row)));
                let ok = match (got, model.get(row)) {
                    (Ok(Ok(got)), want) => got.as_ref() == want,
                    _ => false,
                };
                if !ok {
                    wrong.push(format!(
                        "recovered {} row {row} differs from the acknowledged state",
                        tab.name()
                    ));
                }
            }
        }
        for w in wrong {
            self.fail(w);
        }
    }
}

pub fn add_io(a: &IoStats, b: &IoStats) -> IoStats {
    IoStats {
        logical_reads: a.logical_reads + b.logical_reads,
        physical_reads: a.physical_reads + b.physical_reads,
        physical_writes: a.physical_writes + b.physical_writes,
        evictions: a.evictions + b.evictions,
        policy: b.policy,
    }
}

impl TraceLog {
    pub fn pager_counts(&self) -> PagerCounts {
        self.pager.as_ref().map(|p| p.counts()).unwrap_or_default()
    }
}
