//! Physical indexes behind one dispatch path.
//!
//! This module owns the index-kind decision.  [`IndexSpec`] names the five
//! space-partitioning classes; the `KIND_*` tags are their stable on-disk
//! and on-log spelling; and creating, reopening and persisting an index
//! are the only places that look at the kind.  Everything above — DML,
//! planning, execution, checkpoints — talks to a `Box<dyn TableIndex>`,
//! the catalog's counterpart of the paper's SP-GiST interface: the tree
//! core is written once and each class plugs in underneath.
//!
//! [`TableIndex`] is implemented once, for every [`SpIndex`] whose key
//! type implements [`IndexKey`]: that small trait maps a [`Datum`] to the
//! `String`/`Point`/`Segment` key and a [`Predicate`] leaf to the typed
//! query, rejecting values of any other key type.

use std::sync::Arc;

use spgist_core::{RowId, TreeStats};
use spgist_indexes::geom::{Point, Rect, Segment};
use spgist_indexes::query::{PointQuery, SegmentQuery, StringQuery};
use spgist_indexes::{
    KdTreeIndex, KdTreeOps, PmrQuadtreeIndex, PmrQuadtreeOps, PointQuadtreeIndex, PointQuadtreeOps,
    SpIndex, SuffixTreeIndex, TrieIndex, TrieOps,
};
use spgist_storage::{BufferPool, Codec, StorageError, StorageResult};

use crate::durable::PersistedIndex;
use crate::exec::{Datum, KeyType, Predicate};

/// Index kind tags persisted in the catalog and in WAL `CREATE INDEX`
/// records (stable on-disk values).
pub(crate) const KIND_TRIE: u8 = 0;
pub(crate) const KIND_SUFFIX: u8 = 1;
pub(crate) const KIND_KDTREE: u8 = 2;
pub(crate) const KIND_PQUADTREE: u8 = 3;
pub(crate) const KIND_PMR: u8 = 4;

/// The world rectangle persisted for classes that have none.
const NO_WORLD: Rect = Rect {
    min_x: 0.0,
    min_y: 0.0,
    max_x: 0.0,
    max_y: 0.0,
};

/// What kind of physical index to build on a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexSpec {
    /// Patricia trie (`SP_GiST_trie`, `VARCHAR`).
    Trie,
    /// Suffix tree (`SP_GiST_suffix`, `VARCHAR`).
    SuffixTree,
    /// kd-tree (`SP_GiST_kdtree`, `POINT`).
    KdTree,
    /// Point quadtree (`SP_GiST_pquadtree`, `POINT`).
    PointQuadtree,
    /// PMR quadtree over the given world rectangle (`SP_GiST_pmr`,
    /// `SEGMENT`).
    PmrQuadtree {
        /// The world rectangle the quadtree decomposes.
        world: Rect,
    },
}

impl IndexSpec {
    /// The operator class this physical index is created with.
    pub fn operator_class(&self) -> &'static str {
        match self {
            IndexSpec::Trie => "SP_GiST_trie",
            IndexSpec::SuffixTree => "SP_GiST_suffix",
            IndexSpec::KdTree => "SP_GiST_kdtree",
            IndexSpec::PointQuadtree => "SP_GiST_pquadtree",
            IndexSpec::PmrQuadtree { .. } => "SP_GiST_pmr",
        }
    }

    /// The key type this index can serve.
    pub fn key_type(&self) -> KeyType {
        match self {
            IndexSpec::Trie | IndexSpec::SuffixTree => KeyType::Varchar,
            IndexSpec::KdTree | IndexSpec::PointQuadtree => KeyType::Point,
            IndexSpec::PmrQuadtree { .. } => KeyType::Segment,
        }
    }

    /// The kind tag and world rectangle this spec persists as — one half of
    /// the tag map, [`IndexSpec::from_kind`] is the other.
    fn kind(&self) -> (u8, Rect) {
        match *self {
            IndexSpec::Trie => (KIND_TRIE, NO_WORLD),
            IndexSpec::SuffixTree => (KIND_SUFFIX, NO_WORLD),
            IndexSpec::KdTree => (KIND_KDTREE, NO_WORLD),
            IndexSpec::PointQuadtree => (KIND_PQUADTREE, NO_WORLD),
            IndexSpec::PmrQuadtree { world } => (KIND_PMR, world),
        }
    }

    /// The spec a persisted kind tag names, or `None` for an unknown tag.
    fn from_kind(kind: u8, world: Rect) -> Option<Self> {
        Some(match kind {
            KIND_TRIE => IndexSpec::Trie,
            KIND_SUFFIX => IndexSpec::SuffixTree,
            KIND_KDTREE => IndexSpec::KdTree,
            KIND_PQUADTREE => IndexSpec::PointQuadtree,
            KIND_PMR => IndexSpec::PmrQuadtree { world },
            _ => return None,
        })
    }

    /// Stable byte encoding for WAL `CREATE INDEX` records: the durable
    /// catalog's kind tag, plus the world rectangle where one applies.
    pub(crate) fn encode_spec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let (kind, world) = self.kind();
        kind.encode(&mut out);
        if kind == KIND_PMR {
            world.encode(&mut out);
        }
        out
    }

    pub(crate) fn decode_spec(bytes: &[u8]) -> StorageResult<Self> {
        let mut buf = bytes;
        let kind = u8::decode(&mut buf)?;
        let world = if kind == KIND_PMR {
            Rect::decode(&mut buf)?
        } else {
            NO_WORLD
        };
        let spec = Self::from_kind(kind, world).ok_or_else(|| {
            StorageError::Corrupt(format!(
                "WAL CREATE INDEX record names unknown index kind {kind}"
            ))
        })?;
        if !buf.is_empty() {
            return Err(StorageError::Corrupt(
                "WAL CREATE INDEX record has trailing bytes".into(),
            ));
        }
        Ok(spec)
    }

    /// Creates a fresh, empty index of this kind on `pool`.
    pub(crate) fn create(&self, pool: Arc<BufferPool>) -> StorageResult<Box<dyn TableIndex>> {
        Ok(match *self {
            IndexSpec::Trie => Box::new(TrieIndex::create(pool)?),
            IndexSpec::SuffixTree => Box::new(SuffixTreeIndex::create(pool)?),
            IndexSpec::KdTree => Box::new(KdTreeIndex::create(pool)?),
            IndexSpec::PointQuadtree => Box::new(PointQuadtreeIndex::create(pool)?),
            IndexSpec::PmrQuadtree { world } => Box::new(PmrQuadtreeIndex::create(pool, world)?),
        })
    }

    /// Reopens an index from its durable identity — the inverse of
    /// [`TableIndex::persisted`].  The configuration (and, for the PMR
    /// quadtree, the world rectangle) round-trips, so the reopened index
    /// behaves identically to the never-closed one.
    pub(crate) fn reopen(
        pool: Arc<BufferPool>,
        pi: &PersistedIndex,
    ) -> StorageResult<(Box<dyn TableIndex>, Self)> {
        let spec = Self::from_kind(pi.kind, pi.world).ok_or_else(|| {
            StorageError::Corrupt(format!("catalog names unknown index kind {}", pi.kind))
        })?;
        let (config, meta, pages) = (pi.config, pi.meta_page, pi.pages.clone());
        let index: Box<dyn TableIndex> = match spec {
            IndexSpec::Trie => Box::new(TrieIndex::open_with_ops(
                pool,
                TrieOps::with_config(config),
                meta,
                pages,
            )?),
            IndexSpec::SuffixTree => Box::new(SuffixTreeIndex::open_with_ops(
                pool,
                TrieOps::with_config(config),
                meta,
                pages,
                pi.strings,
            )?),
            IndexSpec::KdTree => Box::new(KdTreeIndex::open_with_ops(
                pool,
                KdTreeOps::with_config(config),
                meta,
                pages,
            )?),
            IndexSpec::PointQuadtree => Box::new(PointQuadtreeIndex::open_with_ops(
                pool,
                PointQuadtreeOps::with_config(config),
                meta,
                pages,
            )?),
            IndexSpec::PmrQuadtree { world } => Box::new(PmrQuadtreeIndex::open_with_ops(
                pool,
                PmrQuadtreeOps::with_config(world, config),
                meta,
                pages,
            )?),
        };
        Ok((index, spec))
    }
}

/// A streaming scan's matching row ids.
pub(crate) type RowIds<'t> = Box<dyn Iterator<Item = StorageResult<RowId>> + 't>;

/// A physical index as a table sees it: typed [`SpIndex`] calls behind
/// [`Datum`]/[`Predicate`] arguments, one object-safe surface for all five
/// classes.
pub(crate) trait TableIndex: Send + Sync {
    /// Inserts a batch of `(datum, row)` items in one call (one row is a
    /// one-item batch).  Atomicity with respect to other statements comes
    /// from the caller's DML lock, not from the index.
    fn insert_batch(&self, items: &[(Datum, RowId)]) -> StorageResult<()>;

    /// Builds the freshly created, empty index from the full `(datum, row)`
    /// set in one `spgistbuild` pass (see [`SpIndex::bulk_build`]).
    fn bulk_build(&self, items: &[(Datum, RowId)]) -> StorageResult<TreeStats>;

    /// Deletes one `(datum, row)` item; returns whether it was present.
    fn delete(&self, datum: &Datum, row: RowId) -> StorageResult<bool>;

    /// Streaming scan for a leaf `predicate`.  The planner only routes a
    /// predicate here when the index's operator class supports it, so a
    /// type mismatch is a planning bug.
    fn scan(&self, predicate: &Predicate) -> StorageResult<RowIds<'_>>;

    /// Ordered (distance) scan for a `@@` leaf, yielding row ids in
    /// non-decreasing distance from the anchor through the incremental NN
    /// search.  An index without distance support is a planning bug.
    fn ordered_scan(&self, predicate: &Predicate) -> StorageResult<RowIds<'_>>;

    /// Structural statistics of the backing tree (a whole-tree walk).
    fn stats(&self) -> StorageResult<TreeStats>;

    /// Pages the backing tree owns, read in O(1) ([`SpIndex::page_count`]).
    fn page_count(&self) -> u64;

    /// The durable identity of this index, created as `spec`: kind,
    /// configuration, tree meta page, owned-page list, and kind-specific
    /// extras (the PMR world rectangle, the suffix tree's word count).
    fn persisted(&self, name: &str, spec: &IndexSpec) -> PersistedIndex;

    /// Releases every page of the backing tree to the pager's free list
    /// (`DROP INDEX`).
    fn destroy(self: Box<Self>) -> StorageResult<()>;
}

/// An index key type a [`Datum`] can hold, with the query type its
/// [`Predicate`] leaves carry.
trait IndexKey: Clone {
    /// The query type of the key's operators.
    type Query;

    /// The key inside `datum`, or `None` for a datum of another type.
    fn of(datum: &Datum) -> Option<&Self>;

    /// The typed query of a leaf predicate over this key type.
    fn query_of(predicate: &Predicate) -> Option<&Self::Query>;
}

/// Implements [`IndexKey`] for a key held by one [`Datum`] variant and
/// queried through one [`Predicate`] variant.
macro_rules! impl_index_key {
    ($key:ty, $query:ty, $datum:ident, $leaf:ident) => {
        impl IndexKey for $key {
            type Query = $query;

            fn of(datum: &Datum) -> Option<&Self> {
                match datum {
                    Datum::$datum(key) => Some(key),
                    _ => None,
                }
            }

            fn query_of(predicate: &Predicate) -> Option<&$query> {
                match predicate {
                    Predicate::$leaf(query) => Some(query),
                    _ => None,
                }
            }
        }
    };
}

impl_index_key!(String, StringQuery, Text, Str);
impl_index_key!(Point, PointQuery, Point, Point);
impl_index_key!(Segment, SegmentQuery, Segment, Segment);

fn key_of<K: IndexKey>(datum: &Datum) -> StorageResult<&K> {
    K::of(datum).ok_or_else(|| {
        StorageError::Unsupported("datum type does not match the index key type".into())
    })
}

/// The typed `(key, row)` items an index consumes, rejecting any datum of
/// another key type.
fn keyed<K: IndexKey>(items: &[(Datum, RowId)]) -> StorageResult<Vec<(K, RowId)>> {
    items
        .iter()
        .map(|(datum, row)| Ok((key_of::<K>(datum)?.clone(), *row)))
        .collect()
}

fn query_of<K: IndexKey>(predicate: &Predicate) -> StorageResult<&K::Query> {
    K::query_of(predicate).ok_or_else(|| {
        StorageError::Unsupported(
            "planner routed a predicate to an index of a different key type".into(),
        )
    })
}

impl<I> TableIndex for I
where
    I: SpIndex + Send + Sync,
    I::Key: IndexKey<Query = I::Query>,
{
    fn insert_batch(&self, items: &[(Datum, RowId)]) -> StorageResult<()> {
        SpIndex::insert_batch(self, keyed(items)?)
    }

    fn bulk_build(&self, items: &[(Datum, RowId)]) -> StorageResult<TreeStats> {
        SpIndex::bulk_build(self, keyed(items)?)
    }

    fn delete(&self, datum: &Datum, row: RowId) -> StorageResult<bool> {
        SpIndex::delete(self, key_of(datum)?, row)
    }

    fn scan(&self, predicate: &Predicate) -> StorageResult<RowIds<'_>> {
        let cursor = self.cursor(query_of::<I::Key>(predicate)?)?;
        Ok(Box::new(cursor.map(|item| item.map(|(_, row)| row))))
    }

    fn ordered_scan(&self, predicate: &Predicate) -> StorageResult<RowIds<'_>> {
        match self.ordered_cursor(query_of::<I::Key>(predicate)?)? {
            Some(cursor) => Ok(Box::new(cursor.map(|item| item.map(|(_, row)| row)))),
            None => Err(StorageError::Unsupported(
                "planner chose an ordered scan on an index without distance support".into(),
            )),
        }
    }

    fn stats(&self) -> StorageResult<TreeStats> {
        SpIndex::stats(self)
    }

    fn page_count(&self) -> u64 {
        SpIndex::page_count(self)
    }

    fn persisted(&self, name: &str, spec: &IndexSpec) -> PersistedIndex {
        let (kind, world) = spec.kind();
        PersistedIndex {
            name: name.to_string(),
            kind,
            config: self.config(),
            world,
            meta_page: self.meta_page(),
            pages: self.owned_pages(),
            strings: if kind == KIND_SUFFIX { self.len() } else { 0 },
        }
    }

    fn destroy(self: Box<Self>) -> StorageResult<()> {
        SpIndex::destroy(*self)
    }
}
