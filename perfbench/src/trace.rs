//! The traced run's instruments, all outside the engine: a timing `Pager`,
//! a counting `SpGistOps` adapter, the shadow replays of the operation log
//! against standalone index wrappers and core trees, and micro replays of
//! single buffer-pool and heap calls.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use spgist_catalog::Datum;
use spgist_core::{Choose, PickSplit, RowId, SpGistConfig, SpGistOps, SpGistTree, TreeStats};
use spgist_indexes::{
    KdTreeIndex, KdTreeOps, PmrQuadtreeIndex, PmrQuadtreeOps, Point, PointQuadtreeIndex,
    PointQuadtreeOps, PointQuery, SegmentQuery, SpGistBacked, SpIndex, StringQuery,
    SuffixTreeIndex, TrieIndex, TrieOps,
};
use spgist_storage::{
    BufferPool, BufferPoolConfig, FilePager, MemPager, Page, PageId, Pager, StorageResult,
};

use crate::gen::{Read, Tab, KNN_K};
use crate::run::Logged;
use crate::workload::{self, Class};

// ---------------------------------------------------------------------------
// Pager layer
// ---------------------------------------------------------------------------

/// Calls and nanoseconds spent in each `Pager` method.
#[derive(Debug, Default, Clone, Copy)]
pub struct PagerCounts {
    pub reads: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_ns: u64,
    pub syncs: u64,
    pub sync_ns: u64,
}

impl PagerCounts {
    pub fn plus(&self, o: &PagerCounts) -> PagerCounts {
        PagerCounts {
            reads: self.reads + o.reads,
            read_ns: self.read_ns + o.read_ns,
            writes: self.writes + o.writes,
            write_ns: self.write_ns + o.write_ns,
            syncs: self.syncs + o.syncs,
            sync_ns: self.sync_ns + o.sync_ns,
        }
    }

    pub fn minus(&self, o: &PagerCounts) -> PagerCounts {
        PagerCounts {
            reads: self.reads - o.reads,
            read_ns: self.read_ns - o.read_ns,
            writes: self.writes - o.writes,
            write_ns: self.write_ns - o.write_ns,
            syncs: self.syncs - o.syncs,
            sync_ns: self.sync_ns - o.sync_ns,
        }
    }
}

/// A `FilePager` that counts and times every read, write and sync.
pub struct TimingPager {
    inner: FilePager,
    c: [AtomicU64; 6],
}

impl TimingPager {
    pub fn new(inner: FilePager) -> Self {
        TimingPager {
            inner,
            c: Default::default(),
        }
    }

    pub fn counts(&self) -> PagerCounts {
        let v = |i: usize| self.c[i].load(Relaxed);
        PagerCounts {
            reads: v(0),
            read_ns: v(1),
            writes: v(2),
            write_ns: v(3),
            syncs: v(4),
            sync_ns: v(5),
        }
    }

    fn timed<R>(&self, slot: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.c[slot].fetch_add(1, Relaxed);
        self.c[slot + 1].fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        out
    }
}

impl Pager for TimingPager {
    fn allocate(&self) -> StorageResult<PageId> {
        self.inner.allocate()
    }
    fn read(&self, id: PageId, out: &mut Page) -> StorageResult<()> {
        self.timed(0, || self.inner.read(id, out))
    }
    fn write(&self, id: PageId, page: &Page) -> StorageResult<()> {
        self.timed(2, || self.inner.write(id, page))
    }
    fn free(&self, id: PageId) -> StorageResult<()> {
        self.inner.free(id)
    }
    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }
    fn free_page_count(&self) -> u32 {
        self.inner.free_page_count()
    }
    fn sync(&self) -> StorageResult<()> {
        self.timed(4, || self.inner.sync())
    }
}

// ---------------------------------------------------------------------------
// Core layer: a counting adapter over the classes' external methods
// ---------------------------------------------------------------------------

/// Calls into the external methods of one core tree.
#[derive(Debug, Default)]
pub struct OpsCounts {
    consistent: AtomicU64,
    leaf: AtomicU64,
    dist: AtomicU64,
    choose: AtomicU64,
    picksplit: AtomicU64,
    picksplit_ns: AtomicU64,
}

/// Delegates every `SpGistOps` method to `inner`, counting the calls.
pub struct Counting<O> {
    inner: O,
    c: Arc<OpsCounts>,
}

impl<O: SpGistOps> SpGistOps for Counting<O> {
    type Key = O::Key;
    type Prefix = O::Prefix;
    type Pred = O::Pred;
    type Query = O::Query;
    type Context = O::Context;

    fn config(&self) -> SpGistConfig {
        self.inner.config()
    }
    fn root_context(&self) -> Self::Context {
        self.inner.root_context()
    }
    fn child_context(
        &self,
        ctx: &Self::Context,
        prefix: Option<&Self::Prefix>,
        pred: &Self::Pred,
        level: u32,
    ) -> Self::Context {
        self.inner.child_context(ctx, prefix, pred, level)
    }
    fn key_query(&self, key: &Self::Key) -> Self::Query {
        self.inner.key_query(key)
    }
    fn consistent(
        &self,
        prefix: Option<&Self::Prefix>,
        pred: &Self::Pred,
        query: &Self::Query,
        level: u32,
    ) -> bool {
        self.c.consistent.fetch_add(1, Relaxed);
        self.inner.consistent(prefix, pred, query, level)
    }
    fn prefix_consistent(&self, prefix: &Self::Prefix, query: &Self::Query, level: u32) -> bool {
        self.c.consistent.fetch_add(1, Relaxed);
        self.inner.prefix_consistent(prefix, query, level)
    }
    fn leaf_consistent(&self, key: &Self::Key, query: &Self::Query, level: u32) -> bool {
        self.c.leaf.fetch_add(1, Relaxed);
        self.inner.leaf_consistent(key, query, level)
    }
    fn descend_levels(&self, prefix: Option<&Self::Prefix>) -> u32 {
        self.inner.descend_levels(prefix)
    }
    fn choose(
        &self,
        prefix: Option<&Self::Prefix>,
        preds: &[Self::Pred],
        key: &Self::Key,
        level: u32,
    ) -> Choose<Self::Pred, Self::Prefix> {
        self.c.choose.fetch_add(1, Relaxed);
        self.inner.choose(prefix, preds, key, level)
    }
    fn picksplit(
        &self,
        items: &[Self::Key],
        level: u32,
        ctx: &Self::Context,
    ) -> PickSplit<Self::Prefix, Self::Pred> {
        let start = Instant::now();
        let out = self.inner.picksplit(items, level, ctx);
        self.c.picksplit.fetch_add(1, Relaxed);
        self.c
            .picksplit_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        out
    }
    fn bulk_prepare(&self, items: &mut [(Self::Key, RowId)], level: u32, ctx: &Self::Context) {
        self.inner.bulk_prepare(items, level, ctx)
    }
    fn inner_distance(
        &self,
        prefix: Option<&Self::Prefix>,
        pred: &Self::Pred,
        query: &Self::Query,
        parent_dist: f64,
        level: u32,
    ) -> f64 {
        self.c.dist.fetch_add(1, Relaxed);
        self.inner
            .inner_distance(prefix, pred, query, parent_dist, level)
    }
    fn leaf_distance(&self, key: &Self::Key, query: &Self::Query) -> f64 {
        self.c.dist.fetch_add(1, Relaxed);
        self.inner.leaf_distance(key, query)
    }
}

// ---------------------------------------------------------------------------
// Replays of the operation log
// ---------------------------------------------------------------------------

fn point_query(read: &Read) -> Option<(PointQuery, bool)> {
    match read {
        Read::PointEq(p) => Some((PointQuery::Equals(*p), false)),
        Read::PointWindow(r) => Some((PointQuery::InRect(*r), false)),
        Read::PointKnn(p) => Some((PointQuery::Nearest(*p), true)),
        _ => None,
    }
}

fn segment_query(read: &Read) -> Option<(SegmentQuery, bool)> {
    match read {
        Read::SegWindow(r) => Some((SegmentQuery::InRect(*r), false)),
        _ => None,
    }
}

fn trie_query(read: &Read) -> Option<(StringQuery, bool)> {
    match read {
        Read::WordEq(w) => Some((StringQuery::Equals(w.clone()), false)),
        Read::WordPrefix(w) => Some((StringQuery::Prefix(w.clone()), false)),
        Read::WordRegex(w) => Some((StringQuery::Regex(w.clone()), false)),
        Read::WordKnn(w) => Some((StringQuery::Nearest(w.clone()), true)),
        _ => None,
    }
}

fn substring_query(read: &Read) -> Option<(StringQuery, bool)> {
    match read {
        Read::WordSubstring(w) => Some((StringQuery::Substring(w.clone()), false)),
        _ => None,
    }
}

/// The core tree stores suffixes: substring search is prefix search.
fn suffix_core_query(read: &Read) -> Option<(StringQuery, bool)> {
    match read {
        Read::WordSubstring(w) => Some((StringQuery::Prefix(w.clone()), false)),
        _ => None,
    }
}

fn point_keys(d: &Datum) -> Vec<Point> {
    match d {
        Datum::Point(p) => vec![*p],
        _ => Vec::new(),
    }
}

fn segment_keys(d: &Datum) -> Vec<spgist_indexes::Segment> {
    match d {
        Datum::Segment(s) => vec![*s],
        _ => Vec::new(),
    }
}

fn word_keys(d: &Datum) -> Vec<String> {
    match d {
        Datum::Text(w) => vec![w.clone()],
        _ => Vec::new(),
    }
}

fn suffix_keys(d: &Datum) -> Vec<String> {
    match d {
        Datum::Text(w) if w.is_empty() => vec![String::new()],
        Datum::Text(w) => (0..w.len()).map(|i| w[i..].to_string()).collect(),
        _ => Vec::new(),
    }
}

/// Maps a read to a class's query, with whether it is a k-NN query;
/// `None` when the class does not serve that read.
type ToQuery<Q> = fn(&Read) -> Option<(Q, bool)>;

/// What one replay measured for one class.
#[derive(Debug, Default, Clone)]
pub struct ClassReport {
    pub queries: u64,
    pub knns: u64,
    pub inserts: u64,
    pub search_us: Vec<f64>,
    pub knn_us: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub delete_us: Vec<f64>,
    pub stats: TreeStats,
    pub len: u64,
    pub epoch_pins: u64,
    pub epoch_pin_ns: u64,
    pub retired: u64,
    pub consistent: u64,
    pub leaf: u64,
    pub dist: u64,
    pub choose: u64,
    pub picksplit: u64,
    pub picksplit_ns: u64,
}

trait Replay {
    fn bulk(&mut self, rows: &[(u64, Datum)]) -> StorageResult<()>;
    /// Runs `read` if this class serves it; returns its time in µs.
    fn read(&mut self, read: &Read) -> StorageResult<Option<f64>>;
    fn insert(&mut self, d: &Datum, row: RowId) -> StorageResult<()>;
    fn delete(&mut self, d: &Datum, row: RowId) -> StorageResult<()>;
    fn report(&mut self) -> StorageResult<ClassReport>;
}

/// A standalone `SpIndex` wrapper, as the catalog uses it.
struct Wrapper<I: SpGistBacked> {
    index: I,
    /// Epoch pins of the bulk build, left out of the replay's figures.
    pins0: (u64, u64),
    to_query: ToQuery<<I as SpIndex>::Query>,
    to_key: fn(&Datum) -> Vec<<I as SpIndex>::Key>,
    rep: ClassReport,
}

impl<I: SpGistBacked> Replay for Wrapper<I> {
    fn bulk(&mut self, rows: &[(u64, Datum)]) -> StorageResult<()> {
        let items = rows
            .iter()
            .flat_map(|(r, d)| (self.to_key)(d).into_iter().map(move |k| (k, *r)))
            .collect();
        self.index.bulk_build(items)?;
        let cs = self.index.backing().concurrency_stats();
        self.pins0 = (cs.epoch_pins, cs.epoch_pin_nanos);
        Ok(())
    }
    fn read(&mut self, read: &Read) -> StorageResult<Option<f64>> {
        let Some((q, knn)) = (self.to_query)(read) else {
            return Ok(None);
        };
        let start = Instant::now();
        let mut n = 0usize;
        if knn {
            if let Some(cursor) = self.index.ordered_cursor(&q)? {
                for item in cursor.take(KNN_K) {
                    item?;
                    n += 1;
                }
            }
        } else {
            for item in self.index.cursor(&q)? {
                item?;
                n += 1;
            }
        }
        std::hint::black_box(n);
        let us = crate::stats::us(start.elapsed());
        if knn {
            self.rep.knns += 1;
            self.rep.knn_us.push(us);
        } else {
            self.rep.queries += 1;
            self.rep.search_us.push(us);
        }
        Ok(Some(us))
    }
    fn insert(&mut self, d: &Datum, row: RowId) -> StorageResult<()> {
        for key in (self.to_key)(d) {
            let start = Instant::now();
            self.index.insert(key, row)?;
            self.rep.inserts += 1;
            self.rep.insert_us.push(crate::stats::us(start.elapsed()));
        }
        Ok(())
    }
    fn delete(&mut self, d: &Datum, row: RowId) -> StorageResult<()> {
        for key in (self.to_key)(d) {
            let start = Instant::now();
            self.index.delete(&key, row)?;
            self.rep.delete_us.push(crate::stats::us(start.elapsed()));
        }
        Ok(())
    }
    fn report(&mut self) -> StorageResult<ClassReport> {
        let mut rep = self.rep.clone();
        rep.stats = self.index.stats()?;
        rep.len = self.index.len();
        let cs = self.index.backing().concurrency_stats();
        rep.epoch_pins = cs.epoch_pins - self.pins0.0;
        rep.epoch_pin_ns = cs.epoch_pin_nanos - self.pins0.1;
        Ok(rep)
    }
}

/// A standalone core tree over the counting adapter.
struct Core<O: SpGistOps> {
    tree: SpGistTree<Counting<O>>,
    counts: Arc<OpsCounts>,
    to_query: ToQuery<O::Query>,
    to_keys: fn(&Datum) -> Vec<O::Key>,
    replicated: bool,
    retired0: u64,
    rep: ClassReport,
}

impl<O: SpGistOps> Core<O> {
    fn new(
        pool: Arc<BufferPool>,
        ops: O,
        to_query: ToQuery<O::Query>,
        to_keys: fn(&Datum) -> Vec<O::Key>,
        replicated: bool,
    ) -> StorageResult<Self> {
        let counts = Arc::new(OpsCounts::default());
        let tree = SpGistTree::create(
            pool,
            Counting {
                inner: ops,
                c: Arc::clone(&counts),
            },
        )?;
        Ok(Core {
            tree,
            counts,
            to_query,
            to_keys,
            replicated,
            retired0: 0,
            rep: ClassReport::default(),
        })
    }
}

impl<O: SpGistOps> Replay for Core<O> {
    fn bulk(&mut self, rows: &[(u64, Datum)]) -> StorageResult<()> {
        let items = rows
            .iter()
            .flat_map(|(r, d)| (self.to_keys)(d).into_iter().map(move |k| (k, *r)))
            .collect();
        self.tree.bulk_build(items)?;
        // Count the replay only, not the build.
        for c in [
            &self.counts.consistent,
            &self.counts.leaf,
            &self.counts.dist,
            &self.counts.choose,
            &self.counts.picksplit,
            &self.counts.picksplit_ns,
        ] {
            c.store(0, Relaxed);
        }
        self.retired0 = self.tree.concurrency_stats().retired;
        Ok(())
    }
    fn read(&mut self, read: &Read) -> StorageResult<Option<f64>> {
        let Some((q, knn)) = (self.to_query)(read) else {
            return Ok(None);
        };
        let start = Instant::now();
        let mut n = 0usize;
        if knn {
            for item in self.tree.nn_iter(q).take(KNN_K) {
                item?;
                n += 1;
            }
            self.rep.knns += 1;
        } else {
            for item in self.tree.search_cursor(q) {
                item?;
                n += 1;
            }
            self.rep.queries += 1;
        }
        std::hint::black_box(n);
        Ok(Some(crate::stats::us(start.elapsed())))
    }
    fn insert(&mut self, d: &Datum, row: RowId) -> StorageResult<()> {
        for key in (self.to_keys)(d) {
            self.tree.insert(key, row)?;
            self.rep.inserts += 1;
        }
        Ok(())
    }
    fn delete(&mut self, d: &Datum, row: RowId) -> StorageResult<()> {
        for key in (self.to_keys)(d) {
            if self.replicated {
                self.tree.delete_replicated(&key, row)?;
            } else {
                self.tree.delete(&key, row)?;
            }
        }
        Ok(())
    }
    fn report(&mut self) -> StorageResult<ClassReport> {
        let mut rep = self.rep.clone();
        rep.stats = self.tree.stats()?;
        rep.len = self.tree.len();
        rep.retired = self.tree.concurrency_stats().retired - self.retired0;
        let c = &self.counts;
        rep.consistent = c.consistent.load(Relaxed);
        rep.leaf = c.leaf.load(Relaxed);
        rep.dist = c.dist.load(Relaxed);
        rep.choose = c.choose.load(Relaxed);
        rep.picksplit = c.picksplit.load(Relaxed);
        rep.picksplit_ns = c.picksplit_ns.load(Relaxed);
        Ok(rep)
    }
}

fn wrapper(class: Class, pool: &Arc<BufferPool>) -> StorageResult<Box<dyn Replay>> {
    let pool = Arc::clone(pool);
    Ok(match class {
        Class::KdTree => Box::new(Wrapper {
            index: KdTreeIndex::create(pool)?,
            to_query: point_query,
            to_key: point_keys,
            pins0: (0, 0),
            rep: ClassReport::default(),
        }),
        Class::PQuadtree => Box::new(Wrapper {
            index: PointQuadtreeIndex::create(pool)?,
            to_query: point_query,
            to_key: point_keys,
            pins0: (0, 0),
            rep: ClassReport::default(),
        }),
        Class::Pmr => Box::new(Wrapper {
            index: PmrQuadtreeIndex::create(pool, workload::world())?,
            to_query: segment_query,
            to_key: segment_keys,
            pins0: (0, 0),
            rep: ClassReport::default(),
        }),
        Class::Trie => Box::new(Wrapper {
            index: TrieIndex::create(pool)?,
            to_query: trie_query,
            to_key: word_keys,
            pins0: (0, 0),
            rep: ClassReport::default(),
        }),
        Class::Suffix => Box::new(Wrapper {
            index: SuffixTreeIndex::create(pool)?,
            to_query: substring_query,
            to_key: word_keys,
            pins0: (0, 0),
            rep: ClassReport::default(),
        }),
    })
}

fn core(class: Class, pool: &Arc<BufferPool>) -> StorageResult<Box<dyn Replay>> {
    let pool = Arc::clone(pool);
    Ok(match class {
        Class::KdTree => Box::new(Core::new(
            pool,
            KdTreeOps::default(),
            point_query,
            point_keys,
            false,
        )?),
        Class::PQuadtree => Box::new(Core::new(
            pool,
            PointQuadtreeOps::default(),
            point_query,
            point_keys,
            false,
        )?),
        Class::Pmr => Box::new(Core::new(
            pool,
            PmrQuadtreeOps::new(workload::world()),
            segment_query,
            segment_keys,
            true,
        )?),
        Class::Trie => Box::new(Core::new(
            pool,
            TrieOps::patricia(),
            trie_query,
            word_keys,
            false,
        )?),
        Class::Suffix => Box::new(Core::new(
            pool,
            TrieOps::patricia(),
            suffix_core_query,
            suffix_keys,
            false,
        )?),
    })
}

/// The result of replaying the log on one layer.
pub struct ReplayResult {
    pub classes: Vec<(Tab, Class, ClassReport)>,
    /// Time of each read on the index its catalog counterpart would scan,
    /// keyed by (log position, catalog index name).
    pub read_us: HashMap<(usize, String), f64>,
}

/// Bulk-builds every class of the workload's tables from the initial rows
/// and replays the log: `wrappers` selects the `SpIndex` wrappers on a
/// file-backed pool (the index layer), otherwise counting core trees.
pub fn replay(
    initial: &[(Tab, Vec<(u64, Datum)>)],
    log: &[Logged],
    capacity: usize,
    dir: &Path,
    wrappers: bool,
) -> StorageResult<ReplayResult> {
    let config = BufferPoolConfig {
        capacity,
        ..BufferPoolConfig::default()
    };
    let pager: Arc<dyn Pager> = if wrappers {
        Arc::new(FilePager::create(dir.join("shadow.db"))?)
    } else {
        Arc::new(MemPager::new())
    };
    let pool = Arc::new(BufferPool::new(pager, config));
    let mut replays: Vec<(Tab, Class, Box<dyn Replay>)> = Vec::new();
    for (tab, rows) in initial {
        for &class in Class::for_table(*tab) {
            let mut r = if wrappers {
                wrapper(class, &pool)?
            } else {
                core(class, &pool)?
            };
            r.bulk(rows)?;
            replays.push((*tab, class, r));
        }
    }
    let mut read_us = HashMap::new();
    for (i, op) in log.iter().enumerate() {
        for (tab, class, r) in replays.iter_mut() {
            match op {
                Logged::Read(read) if read.table() == *tab => {
                    if let Some(us) = r.read(read)? {
                        read_us.insert((i, workload::index_name(*tab, *class)), us);
                    }
                }
                Logged::Insert(t, d, row) if t == tab => r.insert(d, *row)?,
                Logged::Delete(t, d, row) if t == tab => r.delete(d, *row)?,
                _ => {}
            }
        }
    }
    let mut classes = Vec::new();
    for (tab, class, r) in replays.iter_mut() {
        classes.push((*tab, *class, r.report()?));
    }
    Ok(ReplayResult { classes, read_us })
}

// ---------------------------------------------------------------------------
// Micro replays
// ---------------------------------------------------------------------------

/// `BufferPool::with_page` on a resident page and on cold pages, over the
/// timing pager on a copy of the database file: (hit ns, miss ns).
pub fn pool_hit_miss(db_file: &Path) -> StorageResult<(f64, f64)> {
    let pager = Arc::new(TimingPager::new(FilePager::open(db_file)?));
    let pages = pager.page_count();
    let config = |capacity| BufferPoolConfig {
        capacity,
        ..BufferPoolConfig::default()
    };
    let pool = BufferPool::new(pager.clone(), config(64));
    let resident: PageId = 0;
    pool.with_page(resident, |p| std::hint::black_box(p.as_bytes()[0]))?;
    const HITS: u32 = 20_000;
    let start = Instant::now();
    for _ in 0..HITS {
        pool.with_page(resident, |p| std::hint::black_box(p.as_bytes()[0]))?;
    }
    let hit_ns = start.elapsed().as_nanos() as f64 / f64::from(HITS);
    let pool = BufferPool::new(pager, config(16));
    let cold = pages.min(4096);
    let start = Instant::now();
    for id in 0..cold {
        pool.with_page(id, |p| std::hint::black_box(p.as_bytes()[0]))?;
    }
    let miss_ns = start.elapsed().as_nanos() as f64 / f64::from(cold.max(1));
    Ok((hit_ns, miss_ns))
}
