//! The executable query layer: compositional plan → cursor → results.
//!
//! Queries are boolean [`Predicate`] trees (`And`/`Or`/`Not` over the
//! paper's operators, including `@@` nearest-neighbour leaves) with an
//! optional `LIMIT` ([`Query`]).  Planning decomposes a tree into a physical
//! operator tree surfaced as an [`AccessPath`]: index scans for indexable
//! leaves, residual [`AccessPath::Filter`]s for the rest, row-id stream
//! [`AccessPath::Intersect`]/[`AccessPath::Union`] (deduplicated while
//! streaming), [`AccessPath::OrderedScan`]s that run `@@` through the
//! incremental NN search costed like any other path, and
//! [`AccessPath::Limit`] pushdown so cursors stop early instead of
//! materializing.  The sequential scan competes against every strategy on
//! honest cost, and is the fallback when no operator class helps.
//!
//! A [`Table`] registers heap data plus physical indexes (any of the five
//! `SpIndex` implementations, dispatched through one trait object — see
//! the `index` module), derives the planner's [`AvailableIndex`]
//! statistics in O(1) from each index's live page count and a memoized
//! [`TreeStats`] page height, and executes the chosen plan;
//! results stream through an [`ExecCursor`] whose
//! [`ExecCursor::path`]/[`ExecCursor::source`] expose the planned and the
//! actually-dispatched operator trees.
//!
//! [`Database`] is the top-level facade: a catalog, a shared buffer pool and
//! a set of named tables — the "many scenarios, one API" surface of the
//! paper carried to its logical end.
//!
//! **Shared access.** Tables are handed out as `Arc<Table>` handles
//! ([`Database::table_handle`]) that are `Send + Sync`: DML (`insert` /
//! `delete`) and queries take `&self`.  The heap and row directory sit
//! behind a table-level reader-writer latch; the physical indexes are
//! internally concurrent (writers crab per-page latches, index cursors pin
//! a reclamation epoch and never block writers), so the per-table DML lock
//! is what makes a *statement* — heap change plus every index update —
//! atomic with respect to other statements.  Index scans run latch-free:
//! a long cursor delays page reclamation, never a writer.  DDL
//! (`create_index` /
//! `drop_index` / `drop_table`) requires exclusive access (`&mut` /
//! no outstanding handles), the executor's analog of PostgreSQL's
//! `AccessExclusiveLock`.  [`Database::run_parallel`] runs a batch of
//! queries across a scoped thread pool, and [`Table::query_parallel`]
//! partitions large sequential and intersection scans across threads when
//! the cost model says the table is big enough to amortize thread startup.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard, RwLock};

use spgist_core::{RowId, TreeStats};
use spgist_indexes::geom::{Point, Rect, Segment};
use spgist_indexes::query::{PointQuery, SegmentQuery, StringQuery};
use spgist_storage::{
    journal, AccessHint, BufferPool, BufferPoolConfig, CheckpointStats, Codec, FilePager, HeapFile,
    MemPager, PageId, RecordId, StorageError, StorageResult,
};
use spgist_wal::{Lsn, TxnId, Wal, WalConfig, WalRecord, AUTOCOMMIT};

use crate::am::Catalog;
use crate::cost::{CostEstimate, Selectivity, TableStats, CPU_OPERATOR_COST};
use crate::durable::{
    self, CatalogLayout, PersistedTable, RowsDelta, TableSnapshot, ROWS_PER_CHUNK,
};
pub use crate::index::IndexSpec;
use crate::index::TableIndex;
use crate::planner::{AccessPath, AvailableIndex, Planner, QueryPredicate};

// ---------------------------------------------------------------------------
// Typed values and predicates
// ---------------------------------------------------------------------------

/// Key type of a table column (the `key_type` the catalog's operator
/// classes are defined over).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyType {
    /// String keys (`VARCHAR`): trie, suffix tree, B⁺-tree classes.
    Varchar,
    /// 2-D point keys (`POINT`): kd-tree, point quadtree, R-tree classes.
    Point,
    /// Line-segment keys (`SEGMENT`): the PMR-quadtree class.
    Segment,
}

impl KeyType {
    /// Catalog spelling of the type name.
    pub fn name(&self) -> &'static str {
        match self {
            KeyType::Varchar => "VARCHAR",
            KeyType::Point => "POINT",
            KeyType::Segment => "SEGMENT",
        }
    }

    /// Stable on-disk tag (durable catalog).
    fn tag(&self) -> u8 {
        match self {
            KeyType::Varchar => 0,
            KeyType::Point => 1,
            KeyType::Segment => 2,
        }
    }

    fn from_tag(tag: u8) -> StorageResult<Self> {
        match tag {
            0 => Ok(KeyType::Varchar),
            1 => Ok(KeyType::Point),
            2 => Ok(KeyType::Segment),
            t => Err(StorageError::Corrupt(format!("invalid key-type tag {t}"))),
        }
    }
}

/// A typed value stored in a table's key column.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// A string.
    Text(String),
    /// A 2-D point.
    Point(Point),
    /// A line segment.
    Segment(Segment),
}

impl Datum {
    /// The key type this value belongs to.
    pub fn key_type(&self) -> KeyType {
        match self {
            Datum::Text(_) => KeyType::Varchar,
            Datum::Point(_) => KeyType::Point,
            Datum::Segment(_) => KeyType::Segment,
        }
    }

    fn encode_record(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Datum::Text(s) => {
                0u8.encode(&mut out);
                s.encode(&mut out);
            }
            Datum::Point(p) => {
                1u8.encode(&mut out);
                p.encode(&mut out);
            }
            Datum::Segment(s) => {
                2u8.encode(&mut out);
                s.encode(&mut out);
            }
        }
        out
    }

    fn decode_record(bytes: &[u8]) -> StorageResult<Self> {
        let mut buf = bytes;
        match u8::decode(&mut buf)? {
            0 => Ok(Datum::Text(String::decode(&mut buf)?)),
            1 => Ok(Datum::Point(Point::decode(&mut buf)?)),
            2 => Ok(Datum::Segment(Segment::decode(&mut buf)?)),
            tag => Err(StorageError::Decode(format!("invalid datum tag {tag}"))),
        }
    }
}

impl From<&str> for Datum {
    fn from(s: &str) -> Self {
        Datum::Text(s.to_string())
    }
}

impl From<String> for Datum {
    fn from(s: String) -> Self {
        Datum::Text(s)
    }
}

impl From<Point> for Datum {
    fn from(p: Point) -> Self {
        Datum::Point(p)
    }
}

impl From<Segment> for Datum {
    fn from(s: Segment) -> Self {
        Datum::Segment(s)
    }
}

/// An executable query predicate: a boolean tree of `And`/`Or`/`Not` over
/// the paper's registered operators applied to typed arguments.
///
/// Unlike [`QueryPredicate`] (operator *name* + key type, all the planner
/// needs), a `Predicate` carries the actual arguments, so the executor can
/// both run its leaves through indexes and re-check the whole tree against
/// heap tuples.  Leaves are built with the constructors below and composed
/// with [`Predicate::and`] / [`Predicate::or`] / [`Predicate::negate`];
/// [`Predicate::limit`] turns the tree into a [`Query`] with `LIMIT`
/// pushdown.
///
/// ```
/// use spgist_catalog::exec::Predicate;
///
/// let q = Predicate::str_prefix("sp")
///     .and(Predicate::str_regex("spa?e"))
///     .or(Predicate::str_equals("star"))
///     .limit(10);
/// # let _ = q;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// A predicate over string keys.
    Str(StringQuery),
    /// A predicate over point keys.
    Point(PointQuery),
    /// A predicate over segment keys.
    Segment(SegmentQuery),
    /// Conjunction: every child predicate must hold (vacuously true when
    /// empty).
    And(Vec<Predicate>),
    /// Disjunction: at least one child predicate must hold (vacuously false
    /// when empty).
    Or(Vec<Predicate>),
    /// Negation of the inner predicate.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `=` over strings.
    pub fn str_equals(word: &str) -> Self {
        Predicate::Str(StringQuery::Equals(word.to_string()))
    }

    /// `#=` (prefix) over strings.
    pub fn str_prefix(prefix: &str) -> Self {
        Predicate::Str(StringQuery::Prefix(prefix.to_string()))
    }

    /// `?=` (single-character-wildcard regex) over strings.
    pub fn str_regex(pattern: &str) -> Self {
        Predicate::Str(StringQuery::Regex(pattern.to_string()))
    }

    /// `@=` (substring) over strings.
    pub fn str_substring(needle: &str) -> Self {
        Predicate::Str(StringQuery::Substring(needle.to_string()))
    }

    /// `@` (point equality).
    pub fn point_equals(point: Point) -> Self {
        Predicate::Point(PointQuery::Equals(point))
    }

    /// `^` (point inside box).
    pub fn point_in_rect(rect: Rect) -> Self {
        Predicate::Point(PointQuery::InRect(rect))
    }

    /// `=` over segments.
    pub fn segment_equals(segment: Segment) -> Self {
        Predicate::Segment(SegmentQuery::Equals(segment))
    }

    /// `&&` (segment intersects box — the PMR window query).
    pub fn segment_in_rect(rect: Rect) -> Self {
        Predicate::Segment(SegmentQuery::InRect(rect))
    }

    /// `@@` over strings: order results by Hamming-style distance to `word`.
    pub fn str_nearest(word: &str) -> Self {
        Predicate::Str(StringQuery::Nearest(word.to_string()))
    }

    /// `@@` over points: order results by Euclidean distance to `anchor`.
    pub fn point_nearest(anchor: Point) -> Self {
        Predicate::Point(PointQuery::Nearest(anchor))
    }

    /// `@@` over segments: order results by minimum Euclidean distance from
    /// `anchor` to the segment.
    pub fn segment_nearest(anchor: Point) -> Self {
        Predicate::Segment(SegmentQuery::Nearest(anchor))
    }

    /// Conjunction with `other`, flattening nested `And`s.
    pub fn and(self, other: Predicate) -> Predicate {
        match self {
            Predicate::And(mut children) => {
                children.push(other);
                Predicate::And(children)
            }
            leaf => Predicate::And(vec![leaf, other]),
        }
    }

    /// Disjunction with `other`, flattening nested `Or`s.
    pub fn or(self, other: Predicate) -> Predicate {
        match self {
            Predicate::Or(mut children) => {
                children.push(other);
                Predicate::Or(children)
            }
            leaf => Predicate::Or(vec![leaf, other]),
        }
    }

    /// Negation of this predicate.
    pub fn negate(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Turns the predicate into a [`Query`] reporting at most `k` rows,
    /// with the limit pushed into every scan operator.
    pub fn limit(self, k: usize) -> Query {
        Query::new(self).limit(k)
    }

    /// The catalog operator name a *leaf* predicate maps to (`"@@"` for
    /// nearest-neighbour anchors, which plan as ordered scans); `None` for
    /// the boolean composites, which have no single operator.
    pub fn operator(&self) -> Option<&'static str> {
        match self {
            Predicate::Str(StringQuery::Equals(_)) => Some("="),
            Predicate::Str(StringQuery::Prefix(_)) => Some("#="),
            Predicate::Str(StringQuery::Regex(_)) => Some("?="),
            Predicate::Str(StringQuery::Substring(_)) => Some("@="),
            Predicate::Str(StringQuery::Nearest(_))
            | Predicate::Point(PointQuery::Nearest(_))
            | Predicate::Segment(SegmentQuery::Nearest(_)) => Some("@@"),
            Predicate::Point(PointQuery::Equals(_)) => Some("@"),
            Predicate::Point(PointQuery::InRect(_)) => Some("^"),
            Predicate::Segment(SegmentQuery::Equals(_)) => Some("="),
            Predicate::Segment(SegmentQuery::InRect(_)) => Some("&&"),
            Predicate::And(_) | Predicate::Or(_) | Predicate::Not(_) => None,
        }
    }

    /// True for a `@@` (nearest-neighbour) leaf.
    pub fn is_ordered_leaf(&self) -> bool {
        matches!(
            self,
            Predicate::Str(StringQuery::Nearest(_))
                | Predicate::Point(PointQuery::Nearest(_))
                | Predicate::Segment(SegmentQuery::Nearest(_))
        )
    }

    /// The `@@` leaf that orders this predicate's output: the leaf itself,
    /// or the single ordered conjunct of a top-level `And` (the constrained
    /// k-NN shape).  `None` for unordered predicates.
    pub fn ordered_driver(&self) -> Option<&Predicate> {
        match self {
            Predicate::And(children) => children.iter().find(|c| c.is_ordered_leaf()),
            leaf if leaf.is_ordered_leaf() => Some(leaf),
            _ => None,
        }
    }

    /// True if this tree has any operator leaf at all (an empty `And`/`Or`
    /// has none and is type-agnostic).
    fn has_leaves(&self) -> bool {
        match self {
            Predicate::And(children) | Predicate::Or(children) => {
                children.iter().any(Predicate::has_leaves)
            }
            Predicate::Not(inner) => inner.has_leaves(),
            _ => true,
        }
    }

    /// True if this tree contains a `@@` leaf anywhere.
    pub fn contains_ordered(&self) -> bool {
        match self {
            Predicate::And(children) | Predicate::Or(children) => {
                children.iter().any(Predicate::contains_ordered)
            }
            Predicate::Not(inner) => inner.contains_ordered(),
            leaf => leaf.is_ordered_leaf(),
        }
    }

    /// The key type this predicate applies to: the type shared by all of its
    /// leaves, or `None` for a leafless tree (empty `And`/`Or`) — and for a
    /// mixed-type tree, which no single-column table can satisfy anyway and
    /// which [`Table::plan`] rejects.
    pub fn key_type(&self) -> Option<KeyType> {
        match self {
            Predicate::Str(_) => Some(KeyType::Varchar),
            Predicate::Point(_) => Some(KeyType::Point),
            Predicate::Segment(_) => Some(KeyType::Segment),
            Predicate::And(children) | Predicate::Or(children) => {
                let mut found = None;
                for child in children {
                    match (found, child.key_type()) {
                        (_, None) => {}
                        (None, some) => found = some,
                        (Some(a), Some(b)) if a == b => {}
                        (Some(_), Some(_)) => return None,
                    }
                }
                found
            }
            Predicate::Not(inner) => inner.key_type(),
        }
    }

    /// Straight-line re-check against a heap tuple (the sequential-scan and
    /// residual filter).  Type-mismatched leaves never match; `@@` leaves
    /// match every tuple of their type (they order, they do not select).
    pub fn matches(&self, datum: &Datum) -> bool {
        match self {
            Predicate::Str(q) => matches!(datum, Datum::Text(s) if q.matches(s)),
            Predicate::Point(q) => matches!(datum, Datum::Point(p) if q.matches(p)),
            Predicate::Segment(q) => matches!(datum, Datum::Segment(s) if q.matches(s)),
            Predicate::And(children) => children.iter().all(|c| c.matches(datum)),
            Predicate::Or(children) => children.iter().any(|c| c.matches(datum)),
            Predicate::Not(inner) => !inner.matches(datum),
        }
    }

    /// Distance from a `@@` leaf's anchor to `datum` (the ordering key of
    /// the sorted sequential-scan fallback).  Infinite for type mismatches
    /// and for non-ordered predicates.
    pub fn distance(&self, datum: &Datum) -> f64 {
        match (self, datum) {
            (Predicate::Str(StringQuery::Nearest(q)), Datum::Text(s)) => {
                spgist_indexes::query::hamming_distance(s, q)
            }
            (Predicate::Point(PointQuery::Nearest(q)), Datum::Point(p)) => p.distance(q),
            (Predicate::Segment(SegmentQuery::Nearest(q)), Datum::Segment(s)) => {
                s.distance_to_point(q)
            }
            _ => f64::INFINITY,
        }
    }

    /// The planner-facing form of a leaf predicate, carrying an
    /// argument-aware selectivity estimate where the argument tells more
    /// than the operator's class-level default.
    pub fn to_query_predicate(&self) -> Option<QueryPredicate> {
        let op = self.operator()?;
        let key_type = self.key_type()?;
        let qp = QueryPredicate::new(op, key_type.name());
        Some(match self.selectivity_hint() {
            Some(s) => qp.with_selectivity(s),
            None => qp,
        })
    }

    /// Argument-aware selectivity for string-match leaves: an empty prefix,
    /// pattern or needle retrieves (nearly) the whole table, and every fixed
    /// character cuts the match fraction — the honesty the planner needs to
    /// route low-selectivity predicates to the heap.
    fn selectivity_hint(&self) -> Option<f64> {
        /// Fraction of rows matched per fixed character: one letter of the
        /// paper's 26-letter uniform word alphabet.
        const PER_CHAR_SEL: f64 = 1.0 / 26.0;
        /// A needle can match at any of roughly `avg word length` positions.
        const POSITIONS: f64 = 8.0;
        /// Rough chance that a random word has exactly the pattern's length
        /// (lengths are uniform over `[1, 15]`).
        const LENGTH_SEL: f64 = 1.0 / 15.0;
        let clamp = |s: f64| s.clamp(1e-9, 1.0);
        match self {
            Predicate::Str(StringQuery::Prefix(p)) => Some(if p.is_empty() {
                1.0
            } else {
                clamp(PER_CHAR_SEL.powi(p.len() as i32))
            }),
            Predicate::Str(StringQuery::Substring(n)) => Some(if n.is_empty() {
                1.0
            } else {
                clamp(POSITIONS * PER_CHAR_SEL.powi(n.len() as i32))
            }),
            Predicate::Str(StringQuery::Regex(r)) => {
                let fixed = r.bytes().filter(|b| *b != b'?').count();
                // The length must match exactly even with all wildcards.
                Some(clamp(LENGTH_SEL * PER_CHAR_SEL.powi(fixed as i32)))
            }
            Predicate::Point(PointQuery::InRect(r))
            | Predicate::Segment(SegmentQuery::InRect(r)) => {
                // Area fraction relative to the paper's [0, 100]² world —
                // far more honest than a flat contsel for window queries,
                // and what the constrained-k-NN costing needs to size the
                // ordered scan's effective limit.
                const WORLD_AREA: f64 = 100.0 * 100.0;
                Some((r.area() / WORLD_AREA).clamp(5e-4, 1.0))
            }
            _ => None,
        }
    }

    /// Estimated fraction of table rows this predicate tree retrieves, under
    /// the planner's independence assumption.
    fn estimate_selectivity(&self, stats: &TableStats) -> f64 {
        match self {
            Predicate::And(children) => children
                .iter()
                .map(|c| c.estimate_selectivity(stats))
                .product(),
            Predicate::Or(children) => children
                .iter()
                .map(|c| c.estimate_selectivity(stats))
                .sum::<f64>()
                .min(1.0),
            Predicate::Not(inner) => 1.0 - inner.estimate_selectivity(stats),
            leaf if leaf.is_ordered_leaf() => 1.0,
            leaf => leaf.selectivity_hint().unwrap_or_else(|| {
                match leaf.operator() {
                    // Equality: eqsel.
                    Some("=") | Some("@") => Selectivity::EqSel.estimate(stats.distinct_values),
                    // Containment / overlap: contsel.
                    Some("^") | Some("&&") => Selectivity::ContSel.estimate(stats.distinct_values),
                    _ => Selectivity::LikeSel.estimate(stats.distinct_values),
                }
            }),
        }
    }
}

/// A complete query: a [`Predicate`] tree plus an optional `LIMIT`.
///
/// Anything accepting `impl Into<Query>` (notably [`Table::query`] and
/// [`Database::query`]) also takes a bare [`Predicate`] or `&Predicate`, so
/// the one-liner form keeps working:
///
/// ```
/// use spgist_catalog::exec::{Predicate, Query};
///
/// let bare: Query = Predicate::str_prefix("sp").into();
/// assert_eq!(bare.limit, None);
/// let limited = Predicate::str_prefix("sp").limit(5);
/// assert_eq!(limited.limit, Some(5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The boolean predicate tree to evaluate.
    pub predicate: Predicate,
    /// Maximum number of rows to report; pushed into every scan operator so
    /// cursors stop early instead of materializing.
    pub limit: Option<usize>,
}

impl Query {
    /// A query over `predicate` with no limit.
    pub fn new(predicate: Predicate) -> Self {
        Query {
            predicate,
            limit: None,
        }
    }

    /// Caps the result at `k` rows (`LIMIT k`).
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }
}

impl From<Predicate> for Query {
    fn from(predicate: Predicate) -> Self {
        Query::new(predicate)
    }
}

impl From<&Predicate> for Query {
    fn from(predicate: &Predicate) -> Self {
        Query::new(predicate.clone())
    }
}

impl From<&Query> for Query {
    fn from(query: &Query) -> Self {
        query.clone()
    }
}

// ---------------------------------------------------------------------------
// Physical indexes
// ---------------------------------------------------------------------------

struct NamedIndex {
    name: String,
    spec: IndexSpec,
    index: Box<dyn TableIndex>,
    /// The planner's page height, memoized as `(pages_at_walk, height)`:
    /// the live page count when a [`TreeStats`] walk (or the bulk build)
    /// last derived `height`.  Writes never touch it; planning re-walks
    /// only when the live page count drifts out of [`HEIGHT_DRIFT`]× of
    /// `pages_at_walk` ([`NamedIndex::planner_stats`]).  `None` on a
    /// reopened index until its first plan walks.
    height: Mutex<Option<(u64, u32)>>,
}

/// How far the live page count may drift from the count at the last tree
/// walk, in either direction, before the memoized page height is
/// re-derived.  Each re-walk costs O(pages) and the next one waits for the
/// page count to double or halve, so the walks stay geometric in the pages
/// allocated.
const HEIGHT_DRIFT: u64 = 2;

impl NamedIndex {
    fn new(name: &str, spec: IndexSpec, index: Box<dyn TableIndex>) -> Self {
        NamedIndex {
            name: name.to_string(),
            spec,
            index,
            height: Mutex::new(None),
        }
    }

    /// The planner's `(pages, page_height)` for this index, the analog of
    /// PostgreSQL reading a relation's block count from storage and a
    /// cached tree height: the page count is read live in O(1); the page
    /// height comes from the memo, refreshed by one whole-tree walk only
    /// when the page count has left [½×, 2×] of the walked count.
    fn planner_stats(&self) -> StorageResult<(u64, u32)> {
        let pages = self.index.page_count();
        if let Some((walked, height)) = *self.height.lock() {
            if pages <= walked.saturating_mul(HEIGHT_DRIFT)
                && pages.saturating_mul(HEIGHT_DRIFT) >= walked
            {
                return Ok((pages, height));
            }
        }
        // A concurrent planner may walk too; both store the same kind of
        // fresh result, so the race costs only the duplicate walk.
        let stats = self.index.stats()?;
        self.seed_height(&stats);
        Ok((pages, stats.max_page_height))
    }

    /// Memoizes the page height of a walk (or of a bulk build) that saw
    /// `stats.pages` pages.
    fn seed_height(&self, stats: &TreeStats) {
        *self.height.lock() = Some((stats.pages, stats.max_page_height));
    }
}

// ---------------------------------------------------------------------------
// Execution cursors
// ---------------------------------------------------------------------------

/// Where an [`ExecCursor`]'s rows actually come from — recorded at dispatch
/// time, so tests can prove the planner's chosen plan is the one executed.
/// Mirrors the shape of the [`AccessPath`] operator tree.
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

// ---------------------------------------------------------------------------
// Physical plans
// ---------------------------------------------------------------------------

/// Item type flowing between physical operators: a row id, plus the key
/// datum when an upstream operator already fetched it from the heap.
type RowStream<'t> = Box<dyn Iterator<Item = StorageResult<(RowId, Option<Datum>)>> + 't>;

/// Everything leaf planning needs, derived once per query.
struct PlanContext<'a> {
    catalog: &'a Catalog,
    stats: TableStats,
    available: Vec<AvailableIndex>,
}

/// The executable physical operator tree: the [`AccessPath`] shape plus the
/// actual predicate arguments each operator runs with.
#[derive(Debug, Clone)]
enum PhysNode {
    SeqScan {
        /// Predicate re-checked on every heap tuple.
        filter: Predicate,
        /// For ordered queries without an NN-capable index: the `@@` leaf
        /// whose anchor distance sorts the output.
        order: Option<Predicate>,
        cost: CostEstimate,
    },
    IndexScan {
        index: String,
        operator_class: String,
        leaf: Predicate,
        cost: CostEstimate,
    },
    OrderedScan {
        index: String,
        operator_class: String,
        leaf: Predicate,
        cost: CostEstimate,
    },
    Filter {
        input: Box<PhysNode>,
        residual: Vec<Predicate>,
        cost: CostEstimate,
    },
    Intersect {
        inputs: Vec<PhysNode>,
        cost: CostEstimate,
    },
    Union {
        inputs: Vec<PhysNode>,
        cost: CostEstimate,
    },
    Limit {
        input: Box<PhysNode>,
        k: usize,
    },
}

impl PhysNode {
    fn cost(&self) -> CostEstimate {
        match self {
            PhysNode::SeqScan { cost, .. }
            | PhysNode::IndexScan { cost, .. }
            | PhysNode::OrderedScan { cost, .. }
            | PhysNode::Filter { cost, .. }
            | PhysNode::Intersect { cost, .. }
            | PhysNode::Union { cost, .. } => *cost,
            PhysNode::Limit { input, .. } => input.cost(),
        }
    }

    fn total_cost(&self) -> f64 {
        self.cost().total_cost
    }

    fn uses_index(&self) -> bool {
        match self {
            PhysNode::SeqScan { .. } => false,
            PhysNode::IndexScan { .. } | PhysNode::OrderedScan { .. } => true,
            PhysNode::Filter { input, .. } | PhysNode::Limit { input, .. } => input.uses_index(),
            PhysNode::Intersect { inputs, .. } | PhysNode::Union { inputs, .. } => {
                inputs.iter().any(PhysNode::uses_index)
            }
        }
    }

    /// The planner-visible form of this plan (`EXPLAIN` output).
    fn access_path(&self) -> AccessPath {
        match self {
            PhysNode::SeqScan { cost, .. } => AccessPath::SeqScan { cost: *cost },
            PhysNode::IndexScan {
                index,
                operator_class,
                cost,
                ..
            } => AccessPath::IndexScan {
                index: index.clone(),
                operator_class: operator_class.clone(),
                cost: *cost,
            },
            PhysNode::OrderedScan {
                index,
                operator_class,
                cost,
                ..
            } => AccessPath::OrderedScan {
                index: index.clone(),
                operator_class: operator_class.clone(),
                cost: *cost,
            },
            PhysNode::Filter { input, cost, .. } => AccessPath::Filter {
                input: Box::new(input.access_path()),
                cost: *cost,
            },
            PhysNode::Intersect { inputs, cost } => AccessPath::Intersect {
                inputs: inputs.iter().map(PhysNode::access_path).collect(),
                cost: *cost,
            },
            PhysNode::Union { inputs, cost } => AccessPath::Union {
                inputs: inputs.iter().map(PhysNode::access_path).collect(),
                cost: *cost,
            },
            PhysNode::Limit { input, k } => AccessPath::Limit {
                input: Box::new(input.access_path()),
                k: *k,
            },
        }
    }
}

/// Cost of re-checking `residual_count` predicates against the input's
/// output rows.
fn filter_cost(
    input: &CostEstimate,
    stats: &TableStats,
    residual_count: usize,
    output_selectivity: f64,
) -> CostEstimate {
    let input_rows = stats.rows as f64 * input.selectivity;
    CostEstimate {
        selectivity: output_selectivity.min(input.selectivity),
        correlation: 0.0,
        startup_cost: input.startup_cost,
        total_cost: input.total_cost
            + input_rows * CPU_OPERATOR_COST * residual_count.max(1) as f64,
    }
}

/// Cost of intersecting several row-id streams: every non-driving input is
/// drained into a hash set before the driver streams through the membership
/// test, so their full costs land in the startup.
fn intersect_cost(inputs: &[PhysNode], stats: &TableStats) -> CostEstimate {
    let costs: Vec<CostEstimate> = inputs.iter().map(PhysNode::cost).collect();
    let selectivity = costs.iter().map(|c| c.selectivity).product();
    let hash_rows: f64 = costs
        .iter()
        .map(|c| stats.rows as f64 * c.selectivity)
        .sum();
    let total: f64 =
        costs.iter().map(|c| c.total_cost).sum::<f64>() + hash_rows * CPU_OPERATOR_COST;
    let driver_startup = costs.first().map_or(0.0, |c| c.startup_cost);
    let side_total: f64 = costs.iter().skip(1).map(|c| c.total_cost).sum();
    CostEstimate {
        selectivity,
        correlation: 0.0,
        startup_cost: driver_startup + side_total,
        total_cost: total,
    }
}

/// Cost of a deduplicated union of several row-id streams.
fn union_cost(inputs: &[PhysNode], stats: &TableStats) -> CostEstimate {
    let costs: Vec<CostEstimate> = inputs.iter().map(PhysNode::cost).collect();
    let selectivity = costs.iter().map(|c| c.selectivity).sum::<f64>().min(1.0);
    let dedup_rows: f64 = costs
        .iter()
        .map(|c| stats.rows as f64 * c.selectivity)
        .sum();
    CostEstimate {
        selectivity,
        correlation: 0.0,
        startup_cost: costs.first().map_or(0.0, |c| c.startup_cost),
        total_cost: costs.iter().map(|c| c.total_cost).sum::<f64>()
            + dedup_rows * CPU_OPERATOR_COST,
    }
}

/// Rejects predicate trees whose `@@` leaves the executor cannot give a
/// meaning to: an ordered leaf must be the whole query or a top-level
/// conjunct (the *constrained k-NN* shape); under `Or`/`Not` there is no
/// coherent output order.
fn validate_ordered(predicate: &Predicate) -> StorageResult<()> {
    let ok = match predicate {
        leaf if leaf.is_ordered_leaf() => true,
        Predicate::And(children) => {
            children
                .iter()
                .filter(|c| c.contains_ordered())
                .all(Predicate::is_ordered_leaf)
                && children.iter().filter(|c| c.is_ordered_leaf()).count() <= 1
        }
        other => !other.contains_ordered(),
    };
    if ok {
        Ok(())
    } else {
        Err(StorageError::Unsupported(
            "`@@` (nearest) must be the whole predicate or a single top-level conjunct; \
             it cannot appear under Or/Not or more than once"
                .into(),
        ))
    }
}

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
        let Some(rid) = self.rows.get_mut(row as usize).and_then(Option::take) else {
            return Ok(None);
        };
        let datum = Datum::decode_record(&self.heap.get(rid)?)?;
        self.heap.delete(rid)?;
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

    /// Fails when the database's write-ahead log has been poisoned by an
    /// I/O failure.  At that point the in-memory state may be ahead of
    /// stable storage with no way to close the gap (the flusher is dead),
    /// so the table stops serving queries rather than hand out rows whose
    /// durability is unknown; DML is already rejected by `Wal::submit`.
    /// Reopening the database recovers to the acknowledged-durable state.
    fn check_wal_health(&self) -> StorageResult<()> {
        match &self.wal {
            Some(wal) => wal.health().map_err(|e| {
                StorageError::Io(std::io::Error::other(format!(
                    "database failed after a write-ahead log error \
                     (reopen to recover): {e}"
                )))
            }),
            None => Ok(()),
        }
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
        let records: Vec<Vec<u8>> = data.iter().map(Datum::encode_record).collect();
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
            .map(|r| Datum::decode_record(r))
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
        self.place_and_index(row, vec![datum.clone()], vec![datum.encode_record()])
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
    /// Row-at-a-time scan loops (the parallel seq scan, index builds) pass
    /// [`AccessHint::Scan`] so their one-touch heap pages stay out of the
    /// pool's protected set.
    pub fn try_datum_hinted(&self, row: RowId, hint: AccessHint) -> StorageResult<Option<Datum>> {
        let inner = self.inner.read();
        let Some(rid) = inner.rows.get(row as usize).copied().flatten() else {
            return Ok(None);
        };
        Datum::decode_record(&inner.heap.get_hinted(rid, hint)?).map(Some)
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
    /// roadmap item), and the build's own [`TreeStats`] seed the planner's
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
            let distinct: HashSet<Vec<u8>> = items
                .iter()
                .map(|(datum, _)| datum.encode_record())
                .collect();
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
    fn detach_index(&mut self, name: &str) -> Option<NamedIndex> {
        let pos = self.indexes.iter().position(|i| i.name == name)?;
        self.inner.get_mut().dirty.mutated = true;
        Some(self.indexes.remove(pos))
    }

    fn attach_index(&mut self, named: NamedIndex) {
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
    /// [`TreeStats`] walk, re-walked only once the page count has doubled or
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
        Ok(self.plan_phys(catalog, &query.into())?.access_path())
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
        self.check_wal_health()?;
        let phys = self.plan_phys(catalog, &query.into())?;
        let path = phys.access_path();
        let (stream, source) = self.execute_node(&phys)?;
        let inner = stream
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

    /// Plans and executes `query` with up to `n_threads` worker threads,
    /// materializing the matching `(row id, key)` pairs.
    ///
    /// Parallelism applies where the plan shape allows it and the cost
    /// model says the table is large enough to amortize thread startup
    /// ([`CostEstimate::parallel_seq_scan`]):
    ///
    /// * an unordered, un-`LIMIT`ed **sequential scan** partitions the
    ///   row-id range into contiguous chunks, one worker per chunk, and
    ///   concatenates the chunk results — deterministically equal to the
    ///   serial scan's row-id order (a limited scan stays serial: streaming
    ///   stops at `k`, a chunked scan cannot);
    /// * an un-`LIMIT`ed **intersection** evaluates every participating
    ///   input's row-id stream on its own worker, intersects the sets, and
    ///   reports rows in ascending row-id order (again deterministic).  A
    ///   limited intersection stays serial: the parallel set-build reports
    ///   the `k` lowest row ids, which is a valid but *different* subset
    ///   than the serial driver order.
    ///
    /// Everything else (ordered scans, unions, index-driven filters, small
    /// tables) falls back to the serial streaming path with identical
    /// results.
    pub fn query_parallel(
        &self,
        catalog: &Catalog,
        query: impl Into<Query>,
        n_threads: usize,
    ) -> StorageResult<Vec<(RowId, Datum)>> {
        self.check_wal_health()?;
        let query = query.into();
        let n_threads = n_threads.max(1);
        if n_threads > 1 {
            let phys = self.plan_phys(catalog, &query)?;
            let (node, limit) = match &phys {
                PhysNode::Limit { input, k } => (&**input, Some(*k)),
                node => (node, None),
            };
            match node {
                // A LIMIT-bearing seq scan stays serial: the streaming path
                // stops after `k` matches, while a chunked parallel scan
                // would filter the whole table before truncating.
                PhysNode::SeqScan {
                    filter,
                    order: None,
                    ..
                } if limit.is_none() && self.parallel_seq_scan_pays(n_threads) => {
                    return self.par_seq_scan(filter, n_threads);
                }
                // Like the seq scan, a LIMIT-bearing intersection stays
                // serial: truncating the parallel set-build's ascending
                // row-id order would return the k *lowest* row ids, a valid
                // but different subset than the serial driver produces.
                PhysNode::Intersect { inputs, cost }
                    if limit.is_none()
                        && CostEstimate::parallel_pays(
                            cost.total_cost,
                            n_threads.min(inputs.len()),
                        ) =>
                {
                    return self.par_intersect(inputs, &[], n_threads);
                }
                PhysNode::Filter {
                    input, residual, ..
                } if limit.is_none() => {
                    if let PhysNode::Intersect { inputs, cost } = &**input {
                        if CostEstimate::parallel_pays(cost.total_cost, n_threads.min(inputs.len()))
                        {
                            return self.par_intersect(inputs, residual, n_threads);
                        }
                    }
                }
                _ => {}
            }
        }
        self.query(catalog, query)?.collect()
    }

    /// Whether a parallel sequential scan over this table beats the serial
    /// one under the cost model.
    fn parallel_seq_scan_pays(&self, n_threads: usize) -> bool {
        let stats = self.table_stats();
        CostEstimate::parallel_seq_scan(&stats, n_threads).total_cost
            < CostEstimate::seq_scan(&stats).total_cost
    }

    /// Partitions the row-id range into contiguous chunks and filters each
    /// on its own scoped worker thread.  Chunk results concatenate in chunk
    /// order, so the output matches the serial scan exactly.
    fn par_seq_scan(
        &self,
        filter: &Predicate,
        n_threads: usize,
    ) -> StorageResult<Vec<(RowId, Datum)>> {
        let row_count = self.inner.read().rows.len();
        let workers = n_threads.min(row_count.max(1));
        let chunk = row_count.div_ceil(workers);
        let partials: Vec<StorageResult<Vec<(RowId, Datum)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let lo = w * chunk;
                    let hi = (lo + chunk).min(row_count);
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for row in lo..hi {
                            let row = row as RowId;
                            // One-touch heap pages: scan-hinted so parallel
                            // workers do not flush the index working set.
                            if let Some(datum) = self.try_datum_hinted(row, AccessHint::Scan)? {
                                if filter.matches(&datum) {
                                    out.push((row, datum));
                                }
                            }
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel scan worker panicked"))
                .collect()
        });
        let mut rows = Vec::new();
        for part in partials {
            rows.extend(part?);
        }
        Ok(rows)
    }

    /// Evaluates every intersection input's row-id stream on its own scoped
    /// worker, intersects the sets, applies `residual` re-checks, and
    /// reports surviving rows in ascending row-id order.
    fn par_intersect(
        &self,
        inputs: &[PhysNode],
        residual: &[Predicate],
        n_threads: usize,
    ) -> StorageResult<Vec<(RowId, Datum)>> {
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<StorageResult<HashSet<RowId>>>>> =
            inputs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..n_threads.min(inputs.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(node) = inputs.get(i) else { break };
                    let result = self.execute_node(node).and_then(|(stream, _)| {
                        let mut set = HashSet::new();
                        for item in stream {
                            set.insert(item?.0);
                        }
                        Ok(set)
                    });
                    *slots[i].lock() = Some(result);
                });
            }
        });
        let mut sets = Vec::with_capacity(inputs.len());
        for slot in slots {
            sets.push(slot.into_inner().expect("every input slot is filled")?);
        }
        // Intersect starting from the smallest set; sort for a
        // deterministic output order.
        sets.sort_by_key(HashSet::len);
        let (first, rest) = sets.split_first().expect("intersection of >= 2 inputs");
        let mut rows: Vec<RowId> = first
            .iter()
            .copied()
            .filter(|row| rest.iter().all(|set| set.contains(row)))
            .collect();
        rows.sort_unstable();
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            if let Some(datum) = self.try_datum(row)? {
                if residual.iter().all(|p| p.matches(&datum)) {
                    out.push((row, datum));
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Planning (logical predicate tree → physical operator tree)
    // ------------------------------------------------------------------

    /// Plans `query` into an executable physical operator tree.
    fn plan_phys(&self, catalog: &Catalog, query: &Query) -> StorageResult<PhysNode> {
        match query.predicate.key_type() {
            Some(kt) if kt != self.key_type => {
                return Err(StorageError::Unsupported(format!(
                    "predicate over {} cannot run on table {:?} of type {}",
                    kt.name(),
                    self.name,
                    self.key_type.name()
                )));
            }
            None if query.predicate.has_leaves() => {
                return Err(StorageError::Unsupported(
                    "predicate tree mixes key types".into(),
                ));
            }
            _ => {}
        }
        validate_ordered(&query.predicate)?;
        let ctx = PlanContext {
            catalog,
            stats: self.table_stats(),
            available: self.available_indexes()?,
        };
        let node = self.plan_node(&ctx, &query.predicate, query.limit)?;
        Ok(match query.limit {
            Some(k) => PhysNode::Limit {
                input: Box::new(node),
                k,
            },
            None => node,
        })
    }

    /// Recursively plans one predicate subtree.  `limit` is the pushed-down
    /// `LIMIT` when this subtree's output is the query's output (it caps
    /// ordered-scan cost estimates; execution is lazy regardless).
    fn plan_node(
        &self,
        ctx: &PlanContext<'_>,
        predicate: &Predicate,
        limit: Option<usize>,
    ) -> StorageResult<PhysNode> {
        match predicate {
            Predicate::And(children) => self.plan_and(ctx, predicate, children, limit),
            Predicate::Or(children) => self.plan_or(ctx, predicate, children),
            // Negation cannot enumerate its complement from an index.
            Predicate::Not(_) => Ok(self.seq_scan_node(ctx, predicate)),
            leaf => self.plan_leaf(ctx, leaf, limit),
        }
    }

    /// Plans a leaf predicate: the classic one-operator access-path choice,
    /// ordered (`@@`) leaves going through [`Planner::plan_ordered`].
    fn plan_leaf(
        &self,
        ctx: &PlanContext<'_>,
        leaf: &Predicate,
        limit: Option<usize>,
    ) -> StorageResult<PhysNode> {
        let qp = leaf.to_query_predicate().ok_or_else(|| {
            StorageError::Unsupported("composite predicate where a leaf was expected".into())
        })?;
        let planner = Planner::new(ctx.catalog);
        let path = if leaf.is_ordered_leaf() {
            planner.plan_ordered(&qp, &ctx.stats, &ctx.available, limit)
        } else {
            planner.plan(&qp, &ctx.stats, &ctx.available)
        };
        Ok(match path {
            AccessPath::IndexScan {
                index,
                operator_class,
                cost,
            } => PhysNode::IndexScan {
                index,
                operator_class,
                leaf: leaf.clone(),
                cost,
            },
            AccessPath::OrderedScan {
                index,
                operator_class,
                cost,
            } => PhysNode::OrderedScan {
                index,
                operator_class,
                leaf: leaf.clone(),
                cost,
            },
            _ => self.seq_scan_node(ctx, leaf),
        })
    }

    /// The always-available fallback: scan the heap, re-check `predicate` on
    /// every tuple — and, for ordered queries, sort by anchor distance
    /// before reporting (which is why the planner prices it with the
    /// scan-and-sort estimate).
    fn seq_scan_node(&self, ctx: &PlanContext<'_>, predicate: &Predicate) -> PhysNode {
        let order = predicate.ordered_driver().cloned();
        let cost = if order.is_some() {
            CostEstimate::seq_scan_sorted(&ctx.stats)
        } else {
            CostEstimate::seq_scan(&ctx.stats)
        };
        PhysNode::SeqScan {
            filter: predicate.clone(),
            order,
            cost,
        }
    }

    /// Plans a conjunction: pick a driving scan (the cheapest indexable
    /// conjunct — or the ordered scan when one conjunct is a `@@` leaf),
    /// apply the remaining conjuncts as a residual filter, and consider
    /// intersecting several index scans' row-id streams when more than one
    /// conjunct is indexable.  The sequential scan always competes.
    fn plan_and(
        &self,
        ctx: &PlanContext<'_>,
        whole: &Predicate,
        children: &[Predicate],
        limit: Option<usize>,
    ) -> StorageResult<PhysNode> {
        // Constrained k-NN: one `@@` conjunct drives an ordered scan, the
        // other conjuncts filter it (order survives filtering).
        if let Some(driver_idx) = children.iter().position(Predicate::is_ordered_leaf) {
            let residual: Vec<Predicate> = children
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != driver_idx)
                .map(|(_, c)| c.clone())
                .collect();
            // A residual that keeps only fraction `s` of rows means the
            // ordered scan must report roughly k/s rows before k survive —
            // cost the scan at that inflated limit, and keep the sorted
            // heap fallback in the running for unselective drivers.
            let residual_sel = Predicate::And(residual.clone())
                .estimate_selectivity(&ctx.stats)
                .max(1e-9);
            let effective_limit = limit.map(|k| ((k as f64 / residual_sel).ceil() as usize).max(k));
            let driver = self.plan_leaf(ctx, &children[driver_idx], effective_limit)?;
            if residual.is_empty() {
                return Ok(driver);
            }
            return Ok(match driver {
                ordered @ PhysNode::OrderedScan { .. } => {
                    let cost = filter_cost(
                        &ordered.cost(),
                        &ctx.stats,
                        residual.len(),
                        whole.estimate_selectivity(&ctx.stats),
                    );
                    let filtered = PhysNode::Filter {
                        input: Box::new(ordered),
                        residual,
                        cost,
                    };
                    let fallback = self.seq_scan_node(ctx, whole);
                    if filtered.total_cost() <= fallback.total_cost() {
                        filtered
                    } else {
                        fallback
                    }
                }
                // No ordered index: the sorted heap fallback filters inline.
                _ => self.seq_scan_node(ctx, whole),
            });
        }

        let seq = self.seq_scan_node(ctx, whole);
        let mut indexable: Vec<(usize, PhysNode)> = Vec::new();
        for (i, child) in children.iter().enumerate() {
            let node = self.plan_node(ctx, child, None)?;
            if node.uses_index() {
                indexable.push((i, node));
            }
        }
        if indexable.is_empty() {
            return Ok(seq);
        }

        let output_sel = whole.estimate_selectivity(&ctx.stats);
        // Strategy A — drive with the cheapest indexable conjunct, re-check
        // the rest against the fetched tuples.
        let (driver_idx, driver) = indexable
            .iter()
            .min_by(|(_, a), (_, b)| a.total_cost().total_cmp(&b.total_cost()))
            .map(|(i, n)| (*i, n.clone()))
            .expect("indexable is non-empty");
        let residual: Vec<Predicate> = children
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != driver_idx)
            .map(|(_, c)| c.clone())
            .collect();
        let filter_plan = if residual.is_empty() {
            driver
        } else {
            let cost = filter_cost(&driver.cost(), &ctx.stats, residual.len(), output_sel);
            PhysNode::Filter {
                input: Box::new(driver),
                residual,
                cost,
            }
        };

        // Strategy B — intersect every indexable conjunct's row-id stream,
        // then re-check only the non-indexable leftovers.
        let intersect_plan = (indexable.len() >= 2).then(|| {
            let member: HashSet<usize> = indexable.iter().map(|(i, _)| *i).collect();
            let inputs: Vec<PhysNode> = indexable.into_iter().map(|(_, n)| n).collect();
            let cost = intersect_cost(&inputs, &ctx.stats);
            let node = PhysNode::Intersect { inputs, cost };
            let residual: Vec<Predicate> = children
                .iter()
                .enumerate()
                .filter(|(i, _)| !member.contains(i))
                .map(|(_, c)| c.clone())
                .collect();
            if residual.is_empty() {
                node
            } else {
                let cost = filter_cost(&node.cost(), &ctx.stats, residual.len(), output_sel);
                PhysNode::Filter {
                    input: Box::new(node),
                    residual,
                    cost,
                }
            }
        });

        let mut best = seq;
        for candidate in [Some(filter_plan), intersect_plan].into_iter().flatten() {
            if candidate.total_cost() < best.total_cost() {
                best = candidate;
            }
        }
        Ok(best)
    }

    /// Plans a disjunction: a deduplicated union of the disjuncts' plans —
    /// unless any disjunct needs the heap anyway (then one sequential scan
    /// answers everything) or the union costs more than the scan.
    fn plan_or(
        &self,
        ctx: &PlanContext<'_>,
        whole: &Predicate,
        children: &[Predicate],
    ) -> StorageResult<PhysNode> {
        let seq = self.seq_scan_node(ctx, whole);
        let mut inputs = Vec::new();
        for child in children {
            let node = self.plan_node(ctx, child, None)?;
            if !node.uses_index() {
                return Ok(seq);
            }
            inputs.push(node);
        }
        if inputs.is_empty() {
            return Ok(seq);
        }
        let cost = union_cost(&inputs, &ctx.stats);
        let union = PhysNode::Union { inputs, cost };
        Ok(if union.total_cost() < seq.total_cost() {
            union
        } else {
            seq
        })
    }

    // ------------------------------------------------------------------
    // Execution (physical operator tree → streaming cursor)
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

    /// The [`ScanSource`] tree a physical operator dispatches to, derived
    /// from the plan shape (used where execution is lazy and the source
    /// must be known before every input has opened).
    fn scan_source(&self, node: &PhysNode) -> ScanSource {
        match node {
            PhysNode::SeqScan { .. } => ScanSource::Heap,
            PhysNode::IndexScan { index, .. } => ScanSource::Index {
                name: index.clone(),
            },
            PhysNode::OrderedScan { index, .. } => ScanSource::OrderedIndex {
                name: index.clone(),
            },
            PhysNode::Filter { input, .. } => ScanSource::Filter {
                input: Box::new(self.scan_source(input)),
            },
            PhysNode::Intersect { inputs, .. } => ScanSource::Intersect {
                inputs: inputs.iter().map(|n| self.scan_source(n)).collect(),
            },
            PhysNode::Union { inputs, .. } => ScanSource::Union {
                inputs: inputs.iter().map(|n| self.scan_source(n)).collect(),
            },
            PhysNode::Limit { input, .. } => ScanSource::Limit {
                input: Box::new(self.scan_source(input)),
            },
        }
    }

    /// Turns one physical operator into its row stream, recording the
    /// [`ScanSource`] tree actually dispatched to (which tests compare with
    /// the planned [`AccessPath`]).  Streams carry the key datum when the
    /// operator already fetched it, so downstream operators and the cursor
    /// never read the heap twice for one row.
    fn execute_node<'t>(&'t self, node: &PhysNode) -> StorageResult<(RowStream<'t>, ScanSource)> {
        match node {
            PhysNode::SeqScan { filter, order, .. } => {
                let filter = filter.clone();
                match order.clone() {
                    Some(order) => {
                        // Ordered fallback: nothing can stream before the
                        // full scan-and-sort (exactly what the cost model
                        // charges for).
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
                        Ok((Box::new(inner), ScanSource::Heap))
                    }
                    None => {
                        let inner = self.heap_stream().filter_map(move |item| match item {
                            Err(e) => Some(Err(e)),
                            Ok((row, datum)) if filter.matches(&datum) => {
                                Some(Ok((row, Some(datum))))
                            }
                            Ok(_) => None,
                        });
                        Ok((Box::new(inner), ScanSource::Heap))
                    }
                }
            }
            PhysNode::IndexScan { index, leaf, .. } => {
                let named = self.named_index(index)?;
                let rows = named.index.scan(leaf)?;
                Ok((
                    Box::new(rows.map(|item| item.map(|row| (row, None)))),
                    ScanSource::Index {
                        name: named.name.clone(),
                    },
                ))
            }
            PhysNode::OrderedScan { index, leaf, .. } => {
                let named = self.named_index(index)?;
                let rows = named.index.ordered_scan(leaf)?;
                Ok((
                    Box::new(rows.map(|item| item.map(|row| (row, None)))),
                    ScanSource::OrderedIndex {
                        name: named.name.clone(),
                    },
                ))
            }
            PhysNode::Filter {
                input, residual, ..
            } => {
                let (stream, source) = self.execute_node(input)?;
                let residual = residual.clone();
                let inner = stream
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
                Ok((
                    Box::new(inner),
                    ScanSource::Filter {
                        input: Box::new(source),
                    },
                ))
            }
            PhysNode::Intersect { inputs, .. } => {
                let mut nodes = inputs.iter();
                let first = nodes
                    .next()
                    .ok_or_else(|| StorageError::Unsupported("empty intersection plan".into()))?;
                // Materialize every non-driving row-id set (ids only — no
                // heap fetches) before opening the driver cursor.  Cursors
                // pin a reclamation epoch rather than a latch, so nothing
                // can deadlock here any more; draining and dropping each
                // input before the next opens still keeps at most one epoch
                // pinned at a time, so writers' retired pages reclaim
                // promptly even under long intersections.
                let mut sets: Vec<HashSet<RowId>> = Vec::new();
                let mut sources = Vec::with_capacity(inputs.len());
                for node in nodes {
                    let (stream, source) = self.execute_node(node)?;
                    sources.push(source);
                    let mut set = HashSet::new();
                    for item in stream {
                        set.insert(item?.0);
                    }
                    sets.push(set);
                }
                let (driver, driver_source) = self.execute_node(first)?;
                sources.insert(0, driver_source);
                let inner = driver.filter(move |item| match item {
                    Ok((row, _)) => sets.iter().all(|set| set.contains(row)),
                    Err(_) => true,
                });
                Ok((Box::new(inner), ScanSource::Intersect { inputs: sources }))
            }
            PhysNode::Union { inputs, .. } => {
                // Each input's cursor opens only when the previous one is
                // exhausted and dropped.  Cursors pin a reclamation epoch
                // rather than a latch, so opening several at once can no
                // longer deadlock against a writer — sequencing them is now
                // purely about keeping one epoch pinned at a time so
                // writers' retired pages reclaim promptly.
                // The dispatched sources are derived from the plan shape,
                // which is what execution follows by construction.
                let sources: Vec<ScanSource> =
                    inputs.iter().map(|node| self.scan_source(node)).collect();
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
                        Ok((stream, _)) => current = Some(stream),
                        Err(e) => return Some(Err(e)),
                    }
                })
                .map(|item| item.map(|(row, datum)| (datum, row)));
                // Deduplicated by row id while streaming (one disjunct's
                // rows may satisfy another disjunct too).
                let inner = spgist_indexes::Cursor::deduplicated(chained)
                    .map(|item| item.map(|(datum, row)| (row, datum)));
                Ok((Box::new(inner), ScanSource::Union { inputs: sources }))
            }
            PhysNode::Limit { input, k } => {
                let (stream, source) = self.execute_node(input)?;
                Ok((
                    Box::new(stream.take(*k)),
                    ScanSource::Limit {
                        input: Box::new(source),
                    },
                ))
            }
        }
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

// ---------------------------------------------------------------------------
// Database
// ---------------------------------------------------------------------------

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
    open_txns: AtomicU64,
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
        Database {
            catalog: Catalog::with_paper_defaults(),
            pool,
            tables: BTreeMap::new(),
            layout: None,
            wal: None,
            journal: None,
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
        let mut db = Database {
            catalog: Catalog::with_paper_defaults(),
            pool,
            tables: BTreeMap::new(),
            layout: Some(CatalogLayout::new_at_root(root)),
            wal: Some(wal),
            journal: Some(journal),
            next_txn: AtomicU64::new(1),
            open_txns: AtomicU64::new(0),
            ckpt_stats: CheckpointStats::default(),
        };
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
        let mut db = Database {
            catalog: Catalog::with_paper_defaults(),
            pool,
            tables,
            layout: Some(layout),
            // Replay runs with the log detached so the re-executed
            // statements are not logged again.
            wal: None,
            journal: Some(journal),
            next_txn: AtomicU64::new(max_txn + 1),
            open_txns: AtomicU64::new(0),
            ckpt_stats: CheckpointStats::default(),
        };
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
                if t.indexes.iter().any(|i| i.name == index) {
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

    /// Test hook: poisons the write-ahead log exactly as a flusher I/O
    /// failure would, so the fail-fast behavior above it (DML and queries
    /// rejected until a reopen recovers) can be exercised without a real
    /// disk fault.  No-op for in-memory databases.
    #[doc(hidden)]
    pub fn fail_wal_for_test(&self, msg: &str) {
        if let Some(wal) = &self.wal {
            wal.fail_for_test(msg);
        }
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
        if let Some(wal) = &self.wal {
            // Fail fast on a poisoned log rather than at the first statement.
            wal.health().map_err(|e| {
                StorageError::Io(std::io::Error::other(format!(
                    "database failed after a write-ahead log error \
                     (reopen to recover): {e}"
                )))
            })?;
        }
        let id = self.next_txn.fetch_add(1, Ordering::Relaxed);
        self.open_txns.fetch_add(1, Ordering::SeqCst);
        Ok(Transaction {
            db: self,
            id,
            began: false,
            undo: Vec::new(),
            done: false,
        })
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

    /// Plans `query` (a [`Query`] or bare [`Predicate`]) against the named
    /// table (`EXPLAIN`).
    pub fn plan(&self, table: &str, query: impl Into<Query>) -> StorageResult<AccessPath> {
        self.table_or_err(table)?.plan(&self.catalog, query)
    }

    /// Plans and executes `query` (a [`Query`] or bare [`Predicate`])
    /// against the named table, returning a streaming cursor.
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

    /// [`Database::run_parallel`] for one query per call site: plans and
    /// executes `query` with [`Table::query_parallel`]'s partitioned scans.
    pub fn query_parallel(
        &self,
        table: &str,
        query: impl Into<Query>,
        n_threads: usize,
    ) -> StorageResult<Vec<(RowId, Datum)>> {
        self.table_or_err(table)?
            .query_parallel(&self.catalog, query, n_threads)
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.keys().collect::<Vec<_>>())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

/// The inverse of one applied transactional statement, executed in reverse
/// order on abort.  Undo is **not** logged: if the process dies mid-abort,
/// recovery reaches the same end state by dropping the loser transaction's
/// redo records, so compensation records would be redundant.
enum UndoOp {
    /// Undo an insert statement (one row is a one-row batch): remove rows
    /// `first_row..first_row+count` again (their id slots stay allocated).
    InsertMany {
        table: Arc<Table>,
        first_row: RowId,
        count: u64,
    },
    /// Undo a delete: re-insert the remembered datum at its original row id.
    Delete {
        table: Arc<Table>,
        row: RowId,
        datum: Datum,
    },
}

/// A multi-statement transaction from [`Database::begin`].
///
/// Statements apply immediately and are logged with this transaction's id,
/// but none of them waits for an fsync: the **commit point is the
/// `CommitTxn` record** that [`Transaction::commit`] submits and waits on —
/// one group-committed fsync makes the whole transaction durable.  Until
/// then the transaction is a *loser*: recovery after a crash drops every
/// one of its statements (their logged row ids are preserved as dead
/// row-directory slots so later statements' ids stay aligned, but no row
/// data and no index entry survive).
///
/// [`Transaction::abort`] — or dropping the handle without committing —
/// applies logical undo in reverse statement order: inserts are removed,
/// deletes are re-inserted from the remembered datum.
///
/// What transactions do **not** provide is isolation: statements are
/// visible to concurrent readers the moment they apply, exactly like
/// auto-commit DML (see the crate's scan-semantics notes).  DDL remains
/// auto-commit and requires `&mut Database`, which this handle's shared
/// borrow denies while it is open.
pub struct Transaction<'db> {
    db: &'db Database,
    id: TxnId,
    /// Whether `BeginTxn` has been submitted (lazily, just before the first
    /// logged statement — a read-only transaction leaves no log trace).
    began: bool,
    undo: Vec<UndoOp>,
    /// Set by `commit`/`abort`; `Drop` rolls back when still false.
    done: bool,
}

impl<'db> Transaction<'db> {
    /// This transaction's id, as it appears in the log records.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Number of statements executed (and thus undoable) so far.
    pub fn statement_count(&self) -> usize {
        self.undo.len()
    }

    fn table(&self, name: &str) -> StorageResult<Arc<Table>> {
        self.db
            .table_handle(name)
            .ok_or_else(|| StorageError::Unsupported(format!("no table named {name:?}")))
    }

    /// Submits `BeginTxn` before the first logged statement, so replay sees
    /// the transaction open strictly before any of its statements.
    fn ensure_begun(&mut self) -> StorageResult<()> {
        if !self.began {
            if let Some(wal) = &self.db.wal {
                wal.submit(&WalRecord::BeginTxn { txn: self.id })?;
            }
            self.began = true;
        }
        Ok(())
    }

    /// Inserts a value into `table` under this transaction; the row id is
    /// assigned immediately but the insert is not durable (and not
    /// acknowledged) until [`Transaction::commit`].
    pub fn insert(&mut self, table: &str, datum: impl Into<Datum>) -> StorageResult<RowId> {
        Ok(self.insert_many(table, [datum.into()])?[0])
    }

    /// Inserts a batch into `table` as one statement (one redo record)
    /// under this transaction.
    pub fn insert_many<I>(&mut self, table: &str, data: I) -> StorageResult<Vec<RowId>>
    where
        I: IntoIterator,
        I::Item: Into<Datum>,
    {
        let t = self.table(table)?;
        self.ensure_begun()?;
        let data: Vec<Datum> = data.into_iter().map(Into::into).collect();
        let (rows, _lsn) = t.insert_many_logged(data, self.id)?;
        if let Some(&first_row) = rows.first() {
            self.undo.push(UndoOp::InsertMany {
                table: t,
                first_row,
                count: rows.len() as u64,
            });
        }
        Ok(rows)
    }

    /// Deletes a row from `table` under this transaction; returns whether
    /// the row existed.  An abort re-inserts it at the same row id.
    pub fn delete(&mut self, table: &str, row: RowId) -> StorageResult<bool> {
        let t = self.table(table)?;
        self.ensure_begun()?;
        let (datum, _lsn) = t.delete_logged(row, self.id)?;
        match datum {
            Some(datum) => {
                self.undo.push(UndoOp::Delete {
                    table: t,
                    row,
                    datum,
                });
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Commits: submits the `CommitTxn` record and waits for its batch to
    /// reach disk.  That single fsync (shared with whatever else group
    /// commit batched) is the commit point for **every** statement of the
    /// transaction — on success all of them are durable; on a crash before
    /// it, none of them survive recovery.
    ///
    /// If the log fails here the transaction's durability is unknown; the
    /// database is poisoned (fail-fast on further use) and reopening
    /// recovers to the log's actual durable horizon, where the transaction
    /// is either wholly present or wholly absent.
    pub fn commit(mut self) -> StorageResult<()> {
        self.done = true;
        if self.began {
            if let Some(wal) = &self.db.wal {
                let lsn = wal.submit(&WalRecord::CommitTxn { txn: self.id })?;
                wal.wait_durable(lsn)?;
            }
        }
        Ok(())
    }

    /// Rolls every statement back (reverse order) and marks the
    /// transaction aborted in the log.  The undo itself is unlogged — see
    /// [`UndoOp`] — and the `AbortTxn` marker is submitted without waiting:
    /// recovery treats the transaction as a loser with or without it.
    pub fn abort(mut self) -> StorageResult<()> {
        self.done = true;
        self.rollback()
    }

    fn rollback(&mut self) -> StorageResult<()> {
        let mut first_err = None;
        while let Some(op) = self.undo.pop() {
            let result = match &op {
                UndoOp::InsertMany {
                    table,
                    first_row,
                    count,
                } => (*first_row..first_row + count)
                    .rev()
                    .try_for_each(|row| table.undo_insert(row)),
                UndoOp::Delete { table, row, datum } => table.undo_delete(*row, datum),
            };
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
        }
        if self.began {
            if let Some(wal) = &self.db.wal {
                let _ = wal.submit(&WalRecord::AbortTxn { txn: self.id });
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Test hook: simulates the process dying with this transaction open.
    /// A real crash runs no destructors, so the handle is forgotten — no
    /// undo, no `AbortTxn`, and the open-transaction registration stays up
    /// (a later checkpoint on this `Database` fails rather than persist the
    /// orphaned uncommitted work).  The only sane follow-up is dropping the
    /// `Database` and reopening, which drops the transaction as a loser.
    ///
    /// The undo list is released first: its entries hold `Arc<Table>`
    /// handles, and leaking those would keep the WAL (and its flusher
    /// thread) alive past the `Database` drop — the kill-point harnesses
    /// rely on that drop draining every submitted record to disk.
    #[doc(hidden)]
    pub fn crash_for_test(mut self) {
        self.undo.clear();
        std::mem::forget(self);
    }
}

impl Drop for Transaction<'_> {
    /// An uncommitted transaction rolls back on drop (best-effort: undo
    /// errors cannot surface from `Drop` — call [`Transaction::abort`] to
    /// observe them).
    fn drop(&mut self) {
        if !self.done {
            let _ = self.rollback();
        }
        self.db.open_txns.fetch_sub(1, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Transaction<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Transaction")
            .field("id", &self.id)
            .field("statements", &self.undo.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_table(n: usize) -> Database {
        let mut db = Database::in_memory();
        db.create_table("words", KeyType::Varchar).unwrap();
        let table = db.table_mut("words").unwrap();
        for i in 0..n {
            // Deterministic five-letter words over a small alphabet.
            let mut word = String::new();
            let mut v = i;
            for _ in 0..5 {
                word.push(char::from(b'a' + (v % 7) as u8));
                v /= 7;
            }
            table.insert(word).unwrap();
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
    fn query_parallel_partitions_seq_scans_deterministically() {
        // Large enough that the cost gate opens the parallel path.
        let db = word_table(60_000);
        let table = db.table("words").unwrap();
        assert!(
            table.parallel_seq_scan_pays(4),
            "60k rows must amortize thread startup"
        );
        let pred = Predicate::str_prefix("a");
        let serial: Vec<(RowId, Datum)> = db
            .query("words", &pred)
            .unwrap()
            .collect::<StorageResult<_>>()
            .unwrap();
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                db.query_parallel("words", &pred, threads).unwrap(),
                serial,
                "chunked scan merges identically at {threads} threads"
            );
        }
        // A pushed-down LIMIT caps the merged result too.
        let limited = db
            .query_parallel("words", pred.clone().limit(17), 4)
            .unwrap();
        assert_eq!(limited, serial[..17.min(serial.len())]);

        // Small tables fail the gate and stay serial, same answers.
        let small = word_table(50);
        assert!(!small.table("words").unwrap().parallel_seq_scan_pays(4));
        let expect = small.query("words", &pred).unwrap().rows().unwrap();
        let got: Vec<RowId> = small
            .query_parallel("words", &pred, 4)
            .unwrap()
            .into_iter()
            .map(|(row, _)| row)
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn query_parallel_agrees_on_composite_predicates() {
        let mut db = word_table(4000);
        db.table_mut("words")
            .unwrap()
            .create_index("words_trie", IndexSpec::Trie)
            .unwrap();
        db.table_mut("words")
            .unwrap()
            .create_index("words_suffix", IndexSpec::SuffixTree)
            .unwrap();
        let composite = Predicate::str_prefix("a").and(Predicate::str_substring("b"));
        let mut serial = db.query("words", &composite).unwrap().rows().unwrap();
        serial.sort_unstable();
        for threads in [1, 3, 5] {
            let mut rows: Vec<RowId> = db
                .query_parallel("words", &composite, threads)
                .unwrap()
                .into_iter()
                .map(|(row, _)| row)
                .collect();
            rows.sort_unstable();
            assert_eq!(rows, serial, "composite plan agrees at {threads} threads");
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
            for i in 0..3000u32 {
                let mut word = String::new();
                let mut v = i;
                for _ in 0..5 {
                    word.push(char::from(b'a' + (v % 7) as u8));
                    v /= 7;
                }
                db.table_mut("words").unwrap().insert(word).unwrap();
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
                    .map(|i| Datum::from(format!("{tag}{i}")).encode_record())
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
