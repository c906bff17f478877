//! The SP-GiST internal methods: generalized insert, search and delete.
//!
//! These methods are "the core of SP-GiST and are the same for all
//! SP-GiST-based indexes" (paper Section 3.1).  They are parameterized by an
//! [`SpGistOps`] implementation — the external methods a developer writes —
//! and by the [`SpGistConfig`](crate::SpGistConfig) interface parameters.  All node reads and
//! writes go through [`NodeStore`], which performs the node→page clustering.
//!
//! # Concurrency model
//!
//! The tree is shared: every operation takes `&self`.
//!
//! *Writers* (inserts) crab per-page latches root-to-leaf: a descent holds at
//! most the current node's page latch and its parent's, releasing the
//! ancestor as soon as the child is latched.  Latches are try-acquired; on
//! contention the writer releases everything, backs off briefly and restarts
//! from the root, so there is no hold-and-wait and hence no deadlock.
//! Writers on disjoint subtrees proceed in parallel.  Structure-changing
//! operations that need a global view (delete, repack, bulk build) take the
//! `write_gate` exclusively, which only excludes *other writers* — readers
//! are never blocked.
//!
//! *Readers* (search, NN, stats, cursors) take no latches at all.  They pin
//! a reclamation epoch before capturing the root; every record they can
//! reach from that root stays readable because writers retire superseded
//! records into the epoch garbage list instead of freeing them in place.
//! Retired records are physically reclaimed only after the last pin from an
//! earlier epoch drops.  Readers are *snapshot-ish*: the tree they traverse
//! is always a valid tree, but a long scan may observe some effects of
//! writes that committed after it started.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use spgist_storage::{
    AccessHint, BufferPool, Codec, ConcurrencyStats, EpochPin, LatchSet, LatchTable, PageId,
    StorageError, StorageResult,
};

use crate::config::NodeShrink;
use crate::nn::NnIter;
use crate::node::{Entry, Node, NodeId};
use crate::ops::{Choose, PickSplit, SpGistOps};
use crate::stats::TreeStats;
use crate::store::NodeStore;
use crate::RowId;

/// Outcome of one latched descent attempt.
enum Descent {
    /// The item was inserted; commit the count and finish.
    Done,
    /// A latch was contended (or the tree was restructured underneath us);
    /// all latches were released — retry from the root.
    Restart,
}

/// A disk-based space-partitioning tree, generalized over its external
/// methods `O`.
pub struct SpGistTree<O: SpGistOps> {
    ops: O,
    store: NodeStore,
    meta_page: PageId,
    /// The root pointer, packed so readers load it with one atomic read and
    /// writers flip it with one atomic store (under `meta_lock`).
    root_cell: AtomicU64,
    item_count: AtomicU64,
    /// Serializes root-pointer flips, count updates and meta-page writes.
    meta_lock: Mutex<()>,
    /// Per-page writer latches for crabbing descents.
    latches: LatchTable,
    /// Inserts take this shared; delete/repack/bulk_build take it exclusive.
    /// Readers never touch it.
    write_gate: RwLock<()>,
}

/// Packs an optional root address into one word: bit 63 is the presence
/// flag, bits 16..48 the page, bits 0..16 the slot.
fn pack_root(root: Option<NodeId>) -> u64 {
    match root {
        None => 0,
        Some(id) => (1 << 63) | (u64::from(id.page) << 16) | u64::from(id.slot),
    }
}

fn unpack_root(cell: u64) -> Option<NodeId> {
    if cell & (1 << 63) == 0 {
        None
    } else {
        Some(NodeId::new((cell >> 16) as u32, cell as u16))
    }
}

impl<O: SpGistOps> SpGistTree<O> {
    /// Creates a new, empty tree whose pages are allocated from `pool`.
    pub fn create(pool: Arc<BufferPool>, ops: O) -> StorageResult<Self> {
        let store = NodeStore::new(Arc::clone(&pool), ops.config().clustering);
        let meta_page = pool.allocate_page()?;
        // Reserve slot 0 of the meta page for the tree descriptor.
        pool.with_page_mut(meta_page, |p| p.insert(&encode_meta(None, 0)))??;
        Ok(SpGistTree {
            ops,
            store,
            meta_page,
            root_cell: AtomicU64::new(pack_root(None)),
            item_count: AtomicU64::new(0),
            meta_lock: Mutex::new(()),
            latches: LatchTable::new(),
            write_gate: RwLock::new(()),
        })
    }

    /// Re-opens a tree previously created on `pool` (or on the file behind
    /// it) from its meta page.
    ///
    /// Only the root pointer and item count are persisted in the meta page;
    /// the page-ownership list used for size statistics is rebuilt lazily, so
    /// [`SpGistTree::stats`] reports `pages = 0` — and
    /// [`SpGistTree::page_count`], which a planner costs the index by,
    /// reports `0` — for re-opened trees until new pages are allocated.
    /// Query and update correctness are unaffected.
    /// When the caller persisted the ownership list (the durable catalog
    /// does), prefer [`SpGistTree::open_with_pages`], which restores full
    /// statistics, repacking and destruction behavior.
    pub fn open(pool: Arc<BufferPool>, ops: O, meta_page: PageId) -> StorageResult<Self> {
        let store = NodeStore::new(Arc::clone(&pool), ops.config().clustering);
        Self::open_with_store(pool, ops, meta_page, store)
    }

    /// Re-opens a tree from its meta page *and* its persisted page-ownership
    /// list (the durable-catalog path).  Unlike [`SpGistTree::open`], the
    /// reopened tree knows every page it owns, so [`SpGistTree::stats`]
    /// reports true sizes, [`SpGistTree::repack`] recycles the old layout,
    /// and [`SpGistTree::destroy`] frees everything — identical to a tree
    /// built in this session.  Page ids are bounds-checked against the pool
    /// so a truncated file fails with [`StorageError::Corrupt`] here.
    pub fn open_with_pages(
        pool: Arc<BufferPool>,
        ops: O,
        meta_page: PageId,
        pages: Vec<PageId>,
    ) -> StorageResult<Self> {
        let allocated = pool.page_count();
        if let Some(&bad) = pages.iter().find(|&&p| p >= allocated) {
            return Err(StorageError::Corrupt(format!(
                "tree page list names page {bad} beyond the {allocated} allocated pages"
            )));
        }
        let store = NodeStore::with_pages(Arc::clone(&pool), ops.config().clustering, pages);
        Self::open_with_store(pool, ops, meta_page, store)
    }

    fn open_with_store(
        pool: Arc<BufferPool>,
        ops: O,
        meta_page: PageId,
        store: NodeStore,
    ) -> StorageResult<Self> {
        let bytes = pool.with_page(meta_page, |p| p.get(0).map(<[u8]>::to_vec))??;
        let (root, item_count) = decode_meta(&bytes)?;
        Ok(SpGistTree {
            ops,
            store,
            meta_page,
            root_cell: AtomicU64::new(pack_root(root)),
            item_count: AtomicU64::new(item_count),
            meta_lock: Mutex::new(()),
            latches: LatchTable::new(),
            write_gate: RwLock::new(()),
        })
    }

    /// The pages owned by this tree's node store, in allocation order.
    /// Persist them alongside [`SpGistTree::meta_page`] and hand both back
    /// to [`SpGistTree::open_with_pages`] to reopen the tree with full
    /// ownership knowledge.
    pub fn owned_pages(&self) -> Vec<PageId> {
        self.store.pages()
    }

    /// Number of pages owned by this tree's node store — the same figure as
    /// [`TreeStats::pages`], read in O(1) without copying the page list or
    /// walking the tree (the planner's live size statistic).
    pub fn page_count(&self) -> u64 {
        self.store.page_count() as u64
    }

    /// The meta page identifying this tree; pass it to [`SpGistTree::open`]
    /// to re-open the tree later.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// The external methods of this instantiation.
    pub fn ops(&self) -> &O {
        &self.ops
    }

    /// The buffer pool used by this tree.
    pub fn pool(&self) -> &Arc<BufferPool> {
        self.store.pool()
    }

    /// Number of items stored in the tree.
    pub fn len(&self) -> u64 {
        self.item_count.load(Ordering::Relaxed)
    }

    /// True if the tree holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Latch and epoch counters for this tree: latch acquisitions and waits
    /// from its crabbing writers, plus epoch pins, pin durations and the
    /// retired-record backlog from its node store.  Counters are cumulative;
    /// diff two snapshots with [`ConcurrencyStats::delta_since`].
    pub fn concurrency_stats(&self) -> ConcurrencyStats {
        let mut stats = self.store.epochs().stats();
        self.latches.stats_into(&mut stats);
        stats
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Inserts `(key, row)` into the tree.
    ///
    /// Inserts crab page latches down the tree and run in parallel with
    /// other inserts (and with all readers); on latch contention the descent
    /// restarts from the root.
    pub fn insert(&self, key: O::Key, row: RowId) -> StorageResult<()> {
        let _gate = self.write_gate.read();
        loop {
            let mut latches = LatchSet::new(&self.latches);
            match self.root() {
                None => {
                    // Serialize root creation on the meta page's latch.
                    if !latches.acquire(self.meta_page) {
                        continue;
                    }
                    if self.root().is_some() {
                        continue; // another writer created the root first
                    }
                    let leaf = Node::<O>::Leaf {
                        items: vec![(key.clone(), row)],
                    };
                    let id = self.store.allocate(&leaf, Some(self.meta_page))?;
                    let _meta = self.meta_lock.lock();
                    self.set_root(Some(id));
                    self.item_count.fetch_add(1, Ordering::Relaxed);
                    self.write_meta_locked()?;
                    break;
                }
                Some(root) => {
                    if !latches.acquire(root.page) {
                        continue;
                    }
                    // Re-check under the latch: the root we captured may have
                    // been relocated before we latched its page.
                    if self.root() != Some(root) {
                        continue;
                    }
                    let ctx = self.ops.root_context();
                    match self.insert_at(root, None, 0, &key, row, &ctx, &mut latches)? {
                        Descent::Done => {
                            drop(latches);
                            let _meta = self.meta_lock.lock();
                            self.item_count.fetch_add(1, Ordering::Relaxed);
                            self.write_meta_locked()?;
                            break;
                        }
                        Descent::Restart => continue,
                    }
                }
            }
        }
        // Opportunistically reclaim records retired past the oldest reader.
        self.store.reclaim()
    }

    /// Inserts every `(key, row)` pair from an iterator, one
    /// [`SpGistTree::insert`] at a time.
    ///
    /// This is the reference insert loop: every key walks the tree from the
    /// root and pages are rewritten as later splits reshape them.  It is the
    /// behavior the equivalence tests compare against; to *load* a known
    /// data set, use [`SpGistTree::bulk_build`], which partitions the whole
    /// set top-down and writes each node exactly once.
    pub fn insert_all<I>(&self, items: I) -> StorageResult<()>
    where
        I: IntoIterator<Item = (O::Key, RowId)>,
    {
        for (key, row) in items {
            self.insert(key, row)?;
        }
        Ok(())
    }

    /// Builds the whole tree from `items` in one pass — the paper's
    /// `spgistbuild` entry point (Section 4).
    ///
    /// The [`BulkBuilder`] recursively applies [`SpGistOps::picksplit`] to
    /// whole partitions top-down, packs leaves to `BucketSize`, allocates
    /// and writes each node exactly once (inner nodes parent-first, their
    /// fixed-width child pointers patched in place), and accumulates the
    /// returned [`TreeStats`] during the build instead of by a traversal.
    /// Classes steer it through [`SpGistOps::bulk_prepare`].
    ///
    /// The tree must be empty; loading into a populated tree is an
    /// [`StorageError::Unsupported`] error.  An empty `items` set is a
    /// no-op.  Query results are identical to inserting the same items with
    /// the insert loop (the tree *shape* may differ — and usually improves:
    /// data-driven classes split on medians, split-once classes decompose
    /// fully).
    ///
    /// [`BulkBuilder`]: crate::build::BulkBuilder
    pub fn bulk_build(&self, items: Vec<(O::Key, RowId)>) -> StorageResult<TreeStats> {
        let _gate = self.write_gate.write();
        if self.root().is_some() || !self.is_empty() {
            return Err(StorageError::Unsupported(
                "bulk_build requires an empty tree; use insert for incremental loads".into(),
            ));
        }
        if items.is_empty() {
            return self.stats();
        }
        let logical = items.len() as u64;
        let meta = self.meta_page;
        // The build writes each page roughly once, front to back — a scan
        // pattern.  Hint the pool so loading one index does not flush every
        // other tree's hot pages; point operations restore Normal below.
        self.store.set_access_hint(AccessHint::Scan);
        let result: StorageResult<_> = (|| {
            let mut builder = crate::build::BulkBuilder::new(&self.ops, &self.store);
            let root = builder.build_root(meta, items)?;
            let stats = builder.finish()?;
            Ok((root, stats))
        })();
        self.store.set_access_hint(AccessHint::Normal);
        let (root, stats) = result?;
        {
            let _meta = self.meta_lock.lock();
            self.set_root(Some(root));
            self.item_count.store(logical, Ordering::Relaxed);
            self.write_meta_locked()?;
        }
        Ok(stats)
    }

    /// One latched descent step.  Invariant on entry: `latches` holds the
    /// parent's page (when `parent` is `Some`) and `node_id`'s page, so this
    /// node cannot be modified or relocated by another writer while we work
    /// on it, and its parent pointer can be patched if *we* relocate it.
    #[allow(clippy::too_many_arguments)]
    fn insert_at(
        &self,
        node_id: NodeId,
        parent: Option<(NodeId, usize)>,
        level: u32,
        key: &O::Key,
        row: RowId,
        ctx: &O::Context,
        latches: &mut LatchSet<'_>,
    ) -> StorageResult<Descent> {
        let node: Node<O> = self.store.read(node_id)?;
        match node {
            Node::Leaf { mut items } => {
                let cfg = self.ops.config();
                items.push((key.clone(), row));
                if items.len() <= cfg.bucket_size || level >= cfg.resolution {
                    self.write_node(node_id, &Node::Leaf { items }, parent)?;
                    return Ok(Descent::Done);
                }
                // The data node is overfull: decompose it with PickSplit.
                let keys: Vec<O::Key> = items.iter().map(|(k, _)| k.clone()).collect();
                let split = self.ops.picksplit(&keys, level, ctx);
                if split.is_degenerate(items.len()) {
                    // No further decomposition is possible (all keys identical
                    // or resolution exhausted); allow the oversized leaf.
                    self.write_node(node_id, &Node::Leaf { items }, parent)?;
                    return Ok(Descent::Done);
                }
                // The replacement subtree is built in fresh, unlinked records
                // (invisible to every other thread) and becomes reachable in
                // one write of the old leaf's record.
                let inner = self.build_split(node_id.page, &items, split, level, ctx)?;
                self.write_node(node_id, &inner, parent)?;
                Ok(Descent::Done)
            }
            Node::Inner { prefix, entries } => {
                let preds: Vec<O::Pred> = entries.iter().map(|e| e.pred.clone()).collect();
                match self.ops.choose(prefix.as_ref(), &preds, key, level) {
                    Choose::Descend(indices) => {
                        let delta = self.ops.descend_levels(prefix.as_ref());
                        // Crab step: this node is where the descent continues,
                        // so no ancestor can be affected anymore — release
                        // them and let writers in other subtrees through.  A
                        // multi-way descend (replicating PMR inserts) keeps
                        // this node protected across its sub-descents, whose
                        // own crab steps would otherwise release it.
                        let multi = indices.len() > 1;
                        if multi {
                            latches.protect(node_id.page);
                        }
                        latches.retain(&[node_id.page]);
                        let mut outcome = Descent::Done;
                        for idx in indices {
                            // Re-read the node: a child relocation during a
                            // previous iteration rewrites our child pointers.
                            let fresh: Node<O> = self.store.read(node_id)?;
                            let Node::Inner {
                                entries: fresh_entries,
                                ..
                            } = fresh
                            else {
                                return Err(StorageError::Corrupt(
                                    "inner node changed kind during insert".into(),
                                ));
                            };
                            let entry = fresh_entries.get(idx).ok_or_else(|| {
                                StorageError::Corrupt(format!(
                                    "choose returned entry {idx} of {}",
                                    fresh_entries.len()
                                ))
                            })?;
                            let child = entry.child;
                            let child_ctx =
                                self.ops
                                    .child_context(ctx, prefix.as_ref(), &entry.pred, level);
                            // Latch the child while still holding this node:
                            // the child pointer we read stays valid until the
                            // child is latched (relocating it requires *our*
                            // latch).
                            if !latches.acquire(child.page) {
                                outcome = Descent::Restart;
                                break;
                            }
                            let descent = self.insert_at(
                                child,
                                Some((node_id, idx)),
                                level + delta,
                                key,
                                row,
                                &child_ctx,
                                latches,
                            )?;
                            if multi {
                                latches.retain(&[node_id.page]);
                            }
                            if matches!(descent, Descent::Restart) {
                                // A restart mid-multi-descend re-runs the whole
                                // insert; partitions already handled may end up
                                // with an extra replica, which replicating
                                // classes tolerate (cursors deduplicate by row
                                // and delete_replicated removes every copy).
                                outcome = Descent::Restart;
                                break;
                            }
                        }
                        if multi {
                            latches.unprotect(node_id.page);
                        }
                        Ok(outcome)
                    }
                    Choose::AddEntry(pred) => {
                        let leaf = Node::<O>::Leaf {
                            items: vec![(key.clone(), row)],
                        };
                        let child = self.store.allocate(&leaf, Some(node_id.page))?;
                        let mut entries = entries;
                        entries.push(Entry { pred, child });
                        self.write_node(node_id, &Node::Inner { prefix, entries }, parent)?;
                        Ok(Descent::Done)
                    }
                    Choose::SplitPrefix {
                        upper_prefix,
                        lower_pred,
                        lower_prefix,
                    } => {
                        // The existing node keeps its content but moves one
                        // level down; a new upper node takes its place (and
                        // usually its NodeId, so the parent pointer stays
                        // valid).
                        let lower = Node::<O>::Inner {
                            prefix: lower_prefix,
                            entries,
                        };
                        let lower_id = self.store.allocate(&lower, Some(node_id.page))?;
                        let upper = Node::<O>::Inner {
                            prefix: upper_prefix,
                            entries: vec![Entry {
                                pred: lower_pred,
                                child: lower_id,
                            }],
                        };
                        let current = self.write_node(node_id, &upper, parent)?;
                        // The restructure is complete and consistent; if the
                        // relocated upper node's page cannot be latched, a
                        // plain restart retries the insert against it.
                        if !latches.acquire(current.page) {
                            return Ok(Descent::Restart);
                        }
                        // Retry the insertion at the restructured node.
                        self.insert_at(current, parent, level, key, row, ctx, latches)
                    }
                }
            }
        }
    }

    /// Builds the inner node replacing an overfull leaf, materializing all
    /// partitions produced by PickSplit (recursively when a partition itself
    /// exceeds the bucket size, unless the instantiation uses the
    /// split-once / PMR rule).
    fn build_split(
        &self,
        near: PageId,
        items: &[(O::Key, RowId)],
        split: PickSplit<O::Prefix, O::Pred>,
        level: u32,
        ctx: &O::Context,
    ) -> StorageResult<Node<O>> {
        let cfg = self.ops.config();
        let mut split = split;
        // A split must never drop items (a PMR segment outside the world
        // rectangle intersects no quadrant): park strays with the insert
        // fallback rule.
        split.park_unassigned(items.len());
        let PickSplit { prefix, partitions } = split;
        let delta = self.ops.descend_levels(prefix.as_ref());
        let mut entries = Vec::with_capacity(partitions.len());
        for (pred, indices) in partitions {
            if indices.is_empty() && cfg.node_shrink == NodeShrink::OmitEmpty {
                continue;
            }
            let part_items: Vec<(O::Key, RowId)> =
                indices.iter().map(|&i| items[i].clone()).collect();
            let child_ctx = self.ops.child_context(ctx, prefix.as_ref(), &pred, level);
            let child = self.build_subtree(near, part_items, level + delta, &child_ctx)?;
            entries.push(Entry { pred, child });
        }
        Ok(Node::Inner { prefix, entries })
    }

    fn build_subtree(
        &self,
        near: PageId,
        items: Vec<(O::Key, RowId)>,
        level: u32,
        ctx: &O::Context,
    ) -> StorageResult<NodeId> {
        let cfg = self.ops.config();
        if items.len() <= cfg.bucket_size || level >= cfg.resolution || cfg.split_once {
            return self.store.allocate(&Node::<O>::Leaf { items }, Some(near));
        }
        let keys: Vec<O::Key> = items.iter().map(|(k, _)| k.clone()).collect();
        let split = self.ops.picksplit(&keys, level, ctx);
        if split.is_degenerate(items.len()) {
            return self.store.allocate(&Node::<O>::Leaf { items }, Some(near));
        }
        let inner = self.build_split(near, &items, split, level, ctx)?;
        self.store.allocate(&inner, Some(near))
    }

    /// Writes `node` at `node_id`, relocating it copy-on-write if it no
    /// longer fits in its page and fixing the parent (or root) pointer.
    /// Returns the node's current address.
    ///
    /// The caller must hold the page latches for `node_id` and the parent
    /// (insert descents do; gate-exclusive paths hold the whole tree).  On
    /// relocation the old record is retired only *after* the parent pointer
    /// flips, so a reader pinned at any moment sees either the old record
    /// (still intact) or the new one — never a dangling pointer.
    fn write_node(
        &self,
        node_id: NodeId,
        node: &Node<O>,
        parent: Option<(NodeId, usize)>,
    ) -> StorageResult<NodeId> {
        let near = parent.map(|(p, _)| p.page).unwrap_or(node_id.page);
        match self.store.update(node_id, node, Some(near))? {
            None => Ok(node_id),
            Some(new_id) => {
                match parent {
                    None => {
                        let _meta = self.meta_lock.lock();
                        self.set_root(Some(new_id));
                        self.write_meta_locked()?;
                    }
                    Some((parent_id, entry_idx)) => {
                        let mut parent_node: Node<O> = self.store.read(parent_id)?;
                        match &mut parent_node {
                            Node::Inner { entries, .. } => {
                                entries
                                    .get_mut(entry_idx)
                                    .ok_or_else(|| {
                                        StorageError::Corrupt(
                                            "parent entry index out of range".into(),
                                        )
                                    })?
                                    .child = new_id;
                            }
                            Node::Leaf { .. } => {
                                return Err(StorageError::Corrupt(
                                    "parent of a relocated node is a leaf".into(),
                                ))
                            }
                        }
                        // The child pointer has a fixed encoded size, so this
                        // update always succeeds in place.
                        if self.store.update(parent_id, &parent_node, None)?.is_some() {
                            return Err(StorageError::Corrupt(
                                "fixed-size parent pointer update relocated the parent".into(),
                            ));
                        }
                    }
                }
                self.store.retire_node(node_id)?;
                Ok(new_id)
            }
        }
    }

    // ------------------------------------------------------------------
    // Search
    // ------------------------------------------------------------------

    /// Returns every `(key, row)` item satisfying `query`.
    ///
    /// Spatial instantiations that replicate objects across partitions (the
    /// PMR quadtree) may report the same row id more than once; their
    /// index-level wrappers deduplicate.
    pub fn search(&self, query: &O::Query) -> StorageResult<Vec<(O::Key, RowId)>> {
        self.search_cursor(query.clone()).collect()
    }

    /// Incremental search: returns a pull-based cursor yielding every
    /// matching `(key, row)` item.
    ///
    /// This is the streaming counterpart of [`SpGistTree::search`]: the
    /// traversal advances only as far as the caller pulls, so an executor can
    /// stop early (`LIMIT`-style) without paying for the full result set.
    /// Items are yielded in the same order `search` returns them.
    ///
    /// The cursor takes no latches — it pins a reclamation epoch for its
    /// lifetime, so concurrent writers proceed and the records it can reach
    /// stay readable.  Keep cursors reasonably short-lived: the pinned epoch
    /// delays physical reclamation of records retired after it opened.
    ///
    /// The cursor borrows the tree; to stream through an owning handle
    /// (an `Arc`, say), build it from that handle with
    /// [`SearchCursor::over`].
    pub fn search_cursor(&self, query: O::Query) -> SearchCursor<&Self, O> {
        SearchCursor::over(self, query)
    }

    /// Streams every matching `(key, row)` item to `visit`.
    pub fn search_visit(
        &self,
        query: &O::Query,
        mut visit: impl FnMut(&O::Key, RowId),
    ) -> StorageResult<()> {
        // Pin before capturing the root: everything reachable from this root
        // stays readable for the duration of the traversal.
        let _pin = self.store.pin();
        let Some(root) = self.root() else {
            return Ok(());
        };
        let mut stack = vec![(root, 0u32)];
        while let Some((node_id, level)) = stack.pop() {
            match self.store.read::<O>(node_id)? {
                Node::Leaf { items } => {
                    for (key, row) in &items {
                        if self.ops.leaf_consistent(key, query, level) {
                            visit(key, *row);
                        }
                    }
                }
                Node::Inner { prefix, entries } => {
                    if let Some(p) = &prefix {
                        if !self.ops.prefix_consistent(p, query, level) {
                            continue;
                        }
                    }
                    let delta = self.ops.descend_levels(prefix.as_ref());
                    for entry in &entries {
                        if self
                            .ops
                            .consistent(prefix.as_ref(), &entry.pred, query, level)
                        {
                            stack.push((entry.child, level + delta));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Incremental nearest-neighbour search (paper Section 5): returns an
    /// iterator yielding items in non-decreasing distance from `query`.
    ///
    /// Like [`SpGistTree::search_cursor`], the iterator pins a reclamation
    /// epoch instead of latching; it borrows the tree, and [`NnIter::over`]
    /// builds one from an owning handle instead.
    pub fn nn_iter(&self, query: O::Query) -> NnIter<&Self, O> {
        NnIter::over(self, query)
    }

    /// Convenience wrapper: the `k` nearest items to `query`.
    pub fn nn_search(&self, query: O::Query, k: usize) -> StorageResult<Vec<(O::Key, RowId, f64)>> {
        self.nn_iter(query).take(k).collect()
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Deletes the item `(key, row)`.  Returns `true` if an item was removed.
    pub fn delete(&self, key: &O::Key, row: RowId) -> StorageResult<bool> {
        self.delete_impl(key, row, false)
    }

    /// Deletes every physical occurrence of the item `(key, row)`, counting
    /// it as one logical removal.  Returns `true` if anything was removed.
    ///
    /// Replicating instantiations (the PMR quadtree) store one logical item
    /// in every partition it intersects, while [`SpGistTree::insert`] counts
    /// it once; plain [`SpGistTree::delete`] would remove a single replica
    /// and leave the others reachable.  This method removes the first
    /// matching `(key, row)` occurrence from *every* leaf that holds one and
    /// decrements the item count once.
    pub fn delete_replicated(&self, key: &O::Key, row: RowId) -> StorageResult<bool> {
        self.delete_impl(key, row, true)
    }

    /// Shared deletion: locate leaves holding `(key, row)` by consistent
    /// descent (the first matching item per leaf; one leaf, or every leaf
    /// when `all_replicas` is set), remove the occurrences, and count one
    /// logical removal.
    ///
    /// Deletion takes the write gate exclusively — it excludes other writers
    /// (so its captured node addresses stay valid without crabbing) but not
    /// readers, which epoch pins keep safe across the copy-on-write removal
    /// rewrites.
    fn delete_impl(&self, key: &O::Key, row: RowId, all_replicas: bool) -> StorageResult<bool> {
        let _gate = self.write_gate.write();
        let Some(root) = self.root() else {
            return Ok(false);
        };
        let query = self.ops.key_query(key);
        type Parent = Option<(NodeId, usize)>;
        let mut stack: Vec<(NodeId, u32, Parent)> = vec![(root, 0u32, None)];
        let mut targets: Vec<(NodeId, usize, Parent)> = Vec::new();
        'outer: while let Some((node_id, level, parent)) = stack.pop() {
            match self.store.read::<O>(node_id)? {
                Node::Leaf { items } => {
                    for (idx, (k, r)) in items.iter().enumerate() {
                        if *r == row && self.ops.leaf_consistent(k, &query, level) {
                            if !targets.iter().any(|(id, _, _)| *id == node_id) {
                                targets.push((node_id, idx, parent));
                            }
                            if !all_replicas {
                                break 'outer;
                            }
                            break;
                        }
                    }
                }
                Node::Inner { prefix, entries } => {
                    if let Some(p) = &prefix {
                        if !self.ops.prefix_consistent(p, &query, level) {
                            continue;
                        }
                    }
                    let delta = self.ops.descend_levels(prefix.as_ref());
                    for (idx, entry) in entries.iter().enumerate() {
                        if self
                            .ops
                            .consistent(prefix.as_ref(), &entry.pred, &query, level)
                        {
                            stack.push((entry.child, level + delta, Some((node_id, idx))));
                        }
                    }
                }
            }
        }
        if targets.is_empty() {
            return Ok(false);
        }
        for (leaf_id, item_idx, parent) in targets {
            let mut node: Node<O> = self.store.read(leaf_id)?;
            if let Node::Leaf { items } = &mut node {
                items.remove(item_idx);
            }
            // Shrinking updates normally stay in place; when one relocates
            // anyway, write_node fixes the captured parent pointer (valid
            // under the exclusive gate — only leaves move here).
            self.write_node(leaf_id, &node, parent)?;
        }
        {
            let _meta = self.meta_lock.lock();
            self.item_count.fetch_sub(1, Ordering::Relaxed);
            self.write_meta_locked()?;
        }
        self.store.reclaim()?;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Clustering / repacking
    // ------------------------------------------------------------------

    /// Re-clusters the whole tree into fresh pages so that each page holds a
    /// *top portion of a subtree*, minimizing the tree's page height.
    ///
    /// This is the offline counterpart of the paper's clustering technique
    /// (after Diwan et al., "Clustering techniques for minimizing external
    /// path length"): starting from the root, nodes are taken in
    /// breadth-first order into the current page until it is full; every
    /// child that did not fit becomes the root of its own packed page,
    /// recursively.  Along any root-to-leaf path the number of page
    /// transitions is therefore roughly the node height divided by the depth
    /// of a subtree that fits in one page.  The logical tree is unchanged;
    /// only the node→page mapping is rewritten.
    ///
    /// Repacking holds the write gate exclusively but never blocks readers:
    /// the rebuilt layout goes into fresh pages, the root flips atomically,
    /// and the old pages are *retired* — readers pinned on the old layout
    /// keep traversing it until reclamation passes their epoch, after which
    /// the pages return to the pager's free list for reuse.
    pub fn repack(&self) -> StorageResult<()> {
        let _gate = self.write_gate.write();
        let Some(root) = self.root() else {
            return Ok(());
        };
        // From here on every placement goes to freshly allocated pages.
        let old_pages = self.store.begin_repack();
        // The repack reads the old layout once and writes the new one once:
        // a two-sided sweep that must not displace the pool's hot set.
        self.store.set_access_hint(AccessHint::Scan);
        let result = Self::repack_group(&self.store, root);
        self.store.set_access_hint(AccessHint::Normal);
        let new_root = result?;
        {
            let _meta = self.meta_lock.lock();
            self.set_root(Some(new_root));
            self.write_meta_locked()?;
        }
        self.store.finish_repack(&old_pages);
        self.store.reclaim()
    }

    /// Packs the subtree rooted at `old_root` into one fresh page (breadth
    /// first, as many nodes as fit) and recursively packs the subtrees that
    /// spill over.  Returns the new address of the subtree root.
    fn repack_group(store: &NodeStore, old_root: NodeId) -> StorageResult<NodeId> {
        use std::collections::{HashMap, VecDeque};

        // Phase 1: breadth-first selection of the nodes this page will hold.
        // Per-record overhead: 1 byte of record header plus 4 bytes of slot
        // entry; keep headroom so the in-place pointer patching below can
        // never overflow the page.
        const PAGE_BUDGET: usize = spgist_storage::PAGE_SIZE - 128;
        let mut group: Vec<(NodeId, Node<O>)> = Vec::new();
        let mut in_group: HashMap<NodeId, usize> = HashMap::new();
        let mut used = 0usize;
        let mut queue = VecDeque::from([old_root]);
        while let Some(id) = queue.pop_front() {
            if in_group.contains_key(&id) {
                continue;
            }
            let node: Node<O> = store.read_hinted(id, AccessHint::Scan)?;
            let cost = node.encode().len() + 5;
            if !group.is_empty() && used + cost > PAGE_BUDGET {
                // The root always goes in (a single node is guaranteed to
                // fit); later nodes are only taken while the budget lasts.
                continue;
            }
            used += cost;
            in_group.insert(id, group.len());
            if let Node::Inner { entries, .. } = &node {
                for entry in entries {
                    queue.push_back(entry.child);
                }
            }
            group.push((id, node));
        }

        // Phase 2: materialize the group in one fresh page (placeholders keep
        // the final size because child pointers are fixed-width), recursively
        // pack the spilled subtrees, then patch the child pointers in place.
        let page = store.fresh_page()?;
        let mut new_ids = Vec::with_capacity(group.len());
        for (_, node) in &group {
            new_ids.push(store.allocate_in_page(node, page)?);
        }
        for (idx, (_, node)) in group.iter().enumerate() {
            let Node::Inner { prefix, entries } = node else {
                continue;
            };
            let mut new_entries = Vec::with_capacity(entries.len());
            for entry in entries {
                let child = match in_group.get(&entry.child) {
                    Some(&member) => new_ids[member],
                    None => Self::repack_group(store, entry.child)?,
                };
                new_entries.push(Entry {
                    pred: entry.pred.clone(),
                    child,
                });
            }
            let patched = Node::<O>::Inner {
                prefix: prefix.clone(),
                entries: new_entries,
            };
            if store.update(new_ids[idx], &patched, None)?.is_some() {
                return Err(StorageError::Corrupt(
                    "repacked inner node changed size while patching child pointers".into(),
                ));
            }
        }
        Ok(new_ids[0])
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// Gathers size and height statistics by traversing the whole tree.
    pub fn stats(&self) -> StorageResult<TreeStats> {
        let _pin = self.store.pin();
        let mut stats = TreeStats {
            pages: self.page_count(),
            size_bytes: self.store.size_bytes(),
            utilization: self.store.utilization()?,
            ..TreeStats::default()
        };
        let Some(root) = self.root() else {
            return Ok(stats);
        };
        // Depth-first traversal tracking (node depth, pages on path).
        let mut stack: Vec<(NodeId, u32, u32, PageId)> = vec![(root, 1, 1, root.page)];
        while let Some((node_id, node_depth, page_depth, last_page)) = stack.pop() {
            let page_depth = if node_id.page == last_page {
                page_depth
            } else {
                page_depth + 1
            };
            stats.max_node_height = stats.max_node_height.max(node_depth);
            stats.max_page_height = stats.max_page_height.max(page_depth);
            // A stats pass touches every node exactly once.
            match self.store.read_hinted::<O>(node_id, AccessHint::Scan)? {
                Node::Leaf { items } => {
                    stats.leaf_nodes += 1;
                    stats.items += items.len() as u64;
                }
                Node::Inner { entries, .. } => {
                    stats.inner_nodes += 1;
                    for entry in &entries {
                        stack.push((entry.child, node_depth + 1, page_depth, node_id.page));
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Releases every page this tree owns (node pages and the meta page) to
    /// the pager's free list, consuming the tree (`DROP INDEX`).
    ///
    /// The page-ownership list is rebuilt lazily for re-opened trees, so a
    /// tree opened from a file and destroyed immediately only frees the
    /// pages it allocated in this session; trees built (or repacked) in the
    /// current session free everything.
    pub fn destroy(self) -> StorageResult<()> {
        // Consuming the tree proves no reader pins remain, so the retired
        // backlog drains completely before the pages go back.
        self.store.reclaim()?;
        let pool = Arc::clone(self.store.pool());
        for page in self.store.pages() {
            pool.free_page(page)?;
        }
        pool.free_page(self.meta_page)
    }

    pub(crate) fn store(&self) -> &NodeStore {
        &self.store
    }

    pub(crate) fn ops_ref(&self) -> &O {
        &self.ops
    }

    pub(crate) fn root(&self) -> Option<NodeId> {
        unpack_root(self.root_cell.load(Ordering::Acquire))
    }

    /// Only under `meta_lock`.
    fn set_root(&self, root: Option<NodeId>) {
        self.root_cell.store(pack_root(root), Ordering::Release);
    }

    /// Writes the meta record; the caller holds `meta_lock`.
    fn write_meta_locked(&self) -> StorageResult<()> {
        let bytes = encode_meta(self.root(), self.len());
        self.store
            .pool()
            .with_page_mut(self.meta_page, |p| p.update(0, &bytes))??;
        Ok(())
    }
}

/// Pull-based streaming search over an [`SpGistTree`]; created by
/// [`SpGistTree::search_cursor`] or [`SearchCursor::over`].
///
/// The cursor is generic over *how it holds the tree*: any `T` that
/// dereferences to the tree works, so a plain `&SpGistTree` gives the
/// classic borrowing cursor while an `Arc<SpGistTree>` gives a cursor that
/// owns a handle and can outlive the borrow — the mechanism the index
/// wrappers use to stream query results.  Either way the cursor holds no
/// latch: it pins a reclamation epoch at creation, so concurrent writers
/// proceed while everything reachable from the captured root stays
/// readable.
///
/// Yields `StorageResult<(key, row)>`: a page read can fail mid-scan, and a
/// streaming iterator has nowhere else to surface that.  After the first
/// error the cursor is exhausted.
pub struct SearchCursor<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    tree: T,
    query: O::Query,
    /// Inner nodes (and unvisited leaves) still to be expanded, with their
    /// decomposition level.
    stack: Vec<(NodeId, u32)>,
    /// Matching items of the most recently expanded leaf.
    pending: std::vec::IntoIter<(O::Key, RowId)>,
    /// Hint attached to every page fetch this cursor makes.
    hint: AccessHint,
    /// Keeps every record reachable from the captured root readable for the
    /// cursor's lifetime.
    _pin: EpochPin,
    done: bool,
}

impl<T, O> SearchCursor<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    /// Builds a cursor from any owned or borrowed handle on a tree.  The
    /// cursor pins a reclamation epoch (never a latch) for its lifetime.
    pub fn over(tree: T, query: O::Query) -> Self {
        // Pin first, then capture the root: records retired after this point
        // outlive the pin, so the captured root stays traversable.
        let pin = tree.store.pin();
        let stack = tree.root().map(|root| vec![(root, 0)]).unwrap_or_default();
        SearchCursor {
            tree,
            query,
            stack,
            pending: Vec::new().into_iter(),
            hint: AccessHint::Normal,
            _pin: pin,
            done: false,
        }
    }

    /// Attaches an [`AccessHint`] to every page fetch this cursor makes.
    ///
    /// Selective queries keep the default [`AccessHint::Normal`]: SP-GiST
    /// clustering packs inner and leaf nodes onto shared pages, so the
    /// pages a query re-descends are exactly the ones worth promoting.
    /// Callers enumerating a large fraction of the index (analytics-style
    /// sweeps) pass [`AccessHint::Scan`] to keep the one-touch leaf pages
    /// out of the pool's protected set.
    pub fn with_hint(mut self, hint: AccessHint) -> Self {
        self.hint = hint;
        self
    }
}

impl<T, O> Iterator for SearchCursor<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    type Item = StorageResult<(O::Key, RowId)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            if let Some(item) = self.pending.next() {
                return Some(Ok(item));
            }
            let Some((node_id, level)) = self.stack.pop() else {
                self.done = true;
                return None;
            };
            let ops = &self.tree.ops;
            match self.tree.store.read_hinted::<O>(node_id, self.hint) {
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
                Ok(Node::Leaf { items }) => {
                    let matched: Vec<(O::Key, RowId)> = items
                        .into_iter()
                        .filter(|(key, _)| ops.leaf_consistent(key, &self.query, level))
                        .collect();
                    self.pending = matched.into_iter();
                }
                Ok(Node::Inner { prefix, entries }) => {
                    if let Some(p) = &prefix {
                        if !ops.prefix_consistent(p, &self.query, level) {
                            continue;
                        }
                    }
                    let delta = ops.descend_levels(prefix.as_ref());
                    for entry in &entries {
                        if ops.consistent(prefix.as_ref(), &entry.pred, &self.query, level) {
                            self.stack.push((entry.child, level + delta));
                        }
                    }
                }
            }
        }
    }
}

impl<T, O> std::fmt::Debug for SearchCursor<T, O>
where
    T: std::ops::Deref<Target = SpGistTree<O>>,
    O: SpGistOps,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchCursor")
            .field("stack_depth", &self.stack.len())
            .field("done", &self.done)
            .finish()
    }
}

impl<O: SpGistOps> std::fmt::Debug for SpGistTree<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpGistTree")
            .field("items", &self.len())
            .field("root", &self.root())
            .field("meta_page", &self.meta_page)
            .finish()
    }
}

/// Fixed-size meta record: root presence flag, root address, item count.
fn encode_meta(root: Option<NodeId>, item_count: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(15);
    match root {
        Some(id) => {
            out.push(1);
            id.page.encode(&mut out);
            id.slot.encode(&mut out);
        }
        None => {
            out.push(0);
            0u32.encode(&mut out);
            0u16.encode(&mut out);
        }
    }
    item_count.encode(&mut out);
    out
}

fn decode_meta(bytes: &[u8]) -> StorageResult<(Option<NodeId>, u64)> {
    let mut buf = bytes;
    let flag = u8::decode(&mut buf)?;
    let page = u32::decode(&mut buf)?;
    let slot = u16::decode(&mut buf)?;
    let count = u64::decode(&mut buf)?;
    let root = if flag == 1 {
        Some(NodeId::new(page, slot))
    } else {
        None
    };
    Ok((root, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusteringPolicy;
    use crate::testing::DigitTrieOps;
    use spgist_storage::{BufferPoolConfig, FilePager, MemPager};

    fn new_tree() -> SpGistTree<DigitTrieOps> {
        SpGistTree::create(BufferPool::in_memory(), DigitTrieOps::default()).unwrap()
    }

    #[test]
    fn root_codec_roundtrip() {
        let cases = [
            None,
            Some(NodeId::new(0, 0)),
            Some(NodeId::new(7, 3)),
            Some(NodeId::new(u32::MAX, u16::MAX)),
        ];
        for root in cases {
            assert_eq!(unpack_root(pack_root(root)), root);
        }
    }

    #[test]
    fn empty_tree_has_no_matches() {
        let tree = new_tree();
        assert!(tree.is_empty());
        assert!(tree.search(&42).unwrap().is_empty());
        assert_eq!(tree.stats().unwrap().items, 0);
    }

    #[test]
    fn insert_and_exact_search() {
        let tree = new_tree();
        for key in [1u32, 12, 123, 1234, 2, 23, 42, 421, 4242] {
            tree.insert(key, u64::from(key) * 10).unwrap();
        }
        assert_eq!(tree.len(), 9);
        assert_eq!(tree.search(&123).unwrap(), vec![(123, 1230)]);
        assert_eq!(tree.search(&4242).unwrap(), vec![(4242, 42420)]);
        assert!(tree.search(&999).unwrap().is_empty());
    }

    #[test]
    fn duplicate_keys_are_all_returned() {
        let tree = new_tree();
        tree.insert(77, 1).unwrap();
        tree.insert(77, 2).unwrap();
        tree.insert(77, 3).unwrap();
        let mut rows: Vec<u64> = tree
            .search(&77)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![1, 2, 3]);
    }

    #[test]
    fn splits_produce_searchable_tree() {
        let tree = new_tree();
        // Far more keys than one bucket: forces repeated PickSplit calls.
        for key in 0..500u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        for key in (0..500u32).step_by(17) {
            assert_eq!(tree.search(&key).unwrap(), vec![(key, u64::from(key))]);
        }
        let stats = tree.stats().unwrap();
        assert_eq!(stats.items, 500);
        assert!(
            stats.inner_nodes > 0,
            "bucket overflow must create inner nodes"
        );
        assert!(stats.max_node_height > 1);
    }

    #[test]
    fn delete_removes_only_the_requested_row() {
        let tree = new_tree();
        for key in 0..100u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        assert!(tree.delete(&50, 50).unwrap());
        assert!(
            !tree.delete(&50, 50).unwrap(),
            "second delete finds nothing"
        );
        assert!(tree.search(&50).unwrap().is_empty());
        assert_eq!(tree.search(&51).unwrap(), vec![(51, 51)]);
        assert_eq!(tree.len(), 99);
    }

    #[test]
    fn stats_track_pages_and_heights() {
        let tree = new_tree();
        for key in 0..2000u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let stats = tree.stats().unwrap();
        assert_eq!(stats.items, 2000);
        assert!(stats.total_nodes() >= stats.leaf_nodes);
        assert!(stats.max_page_height <= stats.max_node_height);
        assert!(stats.pages >= 1);
        assert!(stats.size_bytes >= stats.pages * 8192);
        assert!(stats.utilization > 0.0 && stats.utilization <= 1.0);
    }

    #[test]
    fn page_count_matches_stats_pages_through_every_layout_change() {
        let pool = BufferPool::in_memory();
        let tree = SpGistTree::create(Arc::clone(&pool), DigitTrieOps::default()).unwrap();
        let agree = |tree: &SpGistTree<DigitTrieOps>, when: &str| {
            assert_eq!(tree.page_count(), tree.stats().unwrap().pages, "{when}");
        };
        agree(&tree, "empty");
        for key in 0..3000u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        assert!(tree.page_count() > 1);
        agree(&tree, "after inserts");
        for key in (0..3000u32).step_by(3) {
            assert!(tree.delete(&key, u64::from(key)).unwrap());
        }
        agree(&tree, "after deletes");
        tree.repack().unwrap();
        assert_ne!(tree.page_count(), 0);
        agree(&tree, "after repack");

        let reopened = SpGistTree::open_with_pages(
            Arc::clone(&pool),
            DigitTrieOps::default(),
            tree.meta_page(),
            tree.owned_pages(),
        )
        .unwrap();
        assert_eq!(reopened.page_count(), tree.page_count());
        agree(&reopened, "reopened with its page list");

        let bulk = new_tree();
        let built = bulk
            .bulk_build((0..3000u32).map(|k| (k, u64::from(k))).collect())
            .unwrap();
        assert_eq!(bulk.page_count(), built.pages);
        agree(&bulk, "after bulk_build");
    }

    #[test]
    fn clustering_reduces_page_height() {
        let keys: Vec<u32> = (0..3000).collect();

        let clustered_cfg = DigitTrieOps::default().config();
        let clustered = SpGistTree::create(
            BufferPool::in_memory(),
            DigitTrieOps::with_config(clustered_cfg),
        )
        .unwrap();

        let naive_cfg = clustered_cfg.with_clustering(ClusteringPolicy::NewPagePerNode);
        let naive = SpGistTree::create(
            BufferPool::in_memory(),
            DigitTrieOps::with_config(naive_cfg),
        )
        .unwrap();

        for &k in &keys {
            clustered.insert(k, u64::from(k)).unwrap();
            naive.insert(k, u64::from(k)).unwrap();
        }
        let clustered_stats = clustered.stats().unwrap();
        let naive_stats = naive.stats().unwrap();
        assert_eq!(
            clustered_stats.max_node_height, naive_stats.max_node_height,
            "clustering must not change the logical tree"
        );
        assert!(
            clustered_stats.max_page_height < naive_stats.max_page_height,
            "parent-first clustering ({}) must beat one-node-per-page ({})",
            clustered_stats.max_page_height,
            naive_stats.max_page_height
        );
        assert!(clustered_stats.pages < naive_stats.pages);
    }

    #[test]
    fn repack_preserves_contents_and_reduces_page_height() {
        let tree = new_tree();
        for key in 0..5000u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let before = tree.stats().unwrap();
        tree.repack().unwrap();
        let after = tree.stats().unwrap();
        assert_eq!(after.items, before.items);
        assert_eq!(after.max_node_height, before.max_node_height);
        assert!(
            after.max_page_height <= before.max_page_height,
            "repacking must not worsen page height ({} -> {})",
            before.max_page_height,
            after.max_page_height
        );
        // Everything is still searchable after re-clustering.
        for key in (0..5000u32).step_by(487) {
            assert_eq!(tree.search(&key).unwrap(), vec![(key, u64::from(key))]);
        }
        // Deletes and inserts keep working on the repacked tree.
        assert!(tree.delete(&1234, 1234).unwrap());
        tree.insert(99999, 1).unwrap();
        assert_eq!(tree.search(&99999).unwrap(), vec![(99999, 1)]);
    }

    #[test]
    fn repack_returns_old_pages_for_reuse() {
        let pool = BufferPool::in_memory();
        let tree = SpGistTree::create(Arc::clone(&pool), DigitTrieOps::default()).unwrap();
        for key in 0..3000u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        // Repeated delete-then-insert churn plus repacks must not grow the
        // underlying store: freed pages go on the free list and come back.
        // Rounds 0-1 reach the steady state (the first repack trades the
        // online clustering's tight packing for page-height-minimizing
        // groups); later identical rounds must be served entirely from
        // recycled pages.
        let mut steady_state = 0;
        for round in 0..4 {
            for key in (0..3000u32).step_by(7) {
                tree.delete(&key, u64::from(key)).unwrap();
            }
            for key in (0..3000u32).step_by(7) {
                tree.insert(key, u64::from(key)).unwrap();
            }
            tree.repack().unwrap();
            if round == 1 {
                steady_state = pool.page_count();
                assert!(
                    pool.free_page_count() > 0,
                    "repack must return its old pages to the free list"
                );
            } else if round > 1 {
                assert_eq!(
                    pool.page_count(),
                    steady_state,
                    "round {round}: repack must recycle its old pages"
                );
            }
        }
        assert_eq!(tree.search(&7).unwrap(), vec![(7, 7)]);
        assert_eq!(tree.len(), 3000);
    }

    #[test]
    fn insert_all_matches_individual_inserts() {
        let bulk = new_tree();
        bulk.insert_all((0..200u32).map(|k| (k, u64::from(k))))
            .unwrap();
        let single = new_tree();
        for k in 0..200u32 {
            single.insert(k, u64::from(k)).unwrap();
        }
        for k in (0..200u32).step_by(13) {
            assert_eq!(bulk.search(&k).unwrap(), single.search(&k).unwrap());
        }
    }

    #[test]
    fn bulk_build_matches_insert_loop_results() {
        let items: Vec<(u32, u64)> = (0..2500u32).map(|k| (k, u64::from(k))).collect();
        let bulk = new_tree();
        let build_stats = bulk.bulk_build(items.clone()).unwrap();
        let loop_tree = new_tree();
        loop_tree.insert_all(items).unwrap();

        assert_eq!(bulk.len(), loop_tree.len());
        for k in (0..2500u32).step_by(97) {
            assert_eq!(bulk.search(&k).unwrap(), loop_tree.search(&k).unwrap());
        }
        assert!(bulk.search(&9999).unwrap().is_empty());

        // The stats accumulated during the build agree with a traversal.
        let traversed = bulk.stats().unwrap();
        assert_eq!(build_stats, traversed, "build-time stats match traversal");
        assert!(build_stats.items >= 2500);
        assert!(build_stats.inner_nodes > 0);
        assert!(build_stats.max_page_height <= build_stats.max_node_height);

        // The bulk-built tree stays fully updatable.
        assert!(bulk.delete(&1234, 1234).unwrap());
        bulk.insert(100_000, 7).unwrap();
        assert_eq!(bulk.search(&100_000).unwrap(), vec![(100_000, 7)]);
    }

    #[test]
    fn bulk_build_requires_an_empty_tree() {
        let tree = new_tree();
        tree.insert(1, 1).unwrap();
        assert!(tree.bulk_build(vec![(2, 2)]).is_err());
        // The failed build leaves the tree untouched.
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.search(&1).unwrap(), vec![(1, 1)]);
    }

    #[test]
    fn bulk_build_of_nothing_is_a_noop() {
        let tree = new_tree();
        let stats = tree.bulk_build(Vec::new()).unwrap();
        assert_eq!(stats.items, 0);
        assert!(tree.is_empty());
        tree.insert(5, 5).unwrap();
        assert_eq!(tree.search(&5).unwrap(), vec![(5, 5)]);
    }

    #[test]
    fn bulk_build_handles_all_equal_keys() {
        let tree = new_tree();
        let stats = tree
            .bulk_build((0..300).map(|row| (42u32, row as u64)).collect())
            .unwrap();
        assert_eq!(tree.len(), 300);
        assert_eq!(stats.items, 300);
        let mut rows: Vec<u64> = tree
            .search(&42)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        rows.sort_unstable();
        assert_eq!(rows.len(), 300);
        assert_eq!(rows[0], 0);
        assert_eq!(rows[299], 299);
    }

    #[test]
    fn bulk_build_writes_fewer_pages_than_the_insert_loop() {
        // An eviction-bounded pool (far smaller than the tree) is where the
        // write-once property shows: the insert loop re-dirties hot pages
        // which the evictor writes back over and over, while the bulk build
        // touches each page once plus the patch of its inner nodes.
        let mut items: Vec<(u32, u64)> = (0..6000u32).map(|k| (k, u64::from(k))).collect();
        // Deterministic shuffle: sequential keys would land consecutive
        // inserts on the same leaf page and hide the re-dirtying cost.
        let mut state = 0x5eed_5eedu64;
        for i in (1..items.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            items.swap(i, (state >> 33) as usize % (i + 1));
        }
        let bounded_pool = || {
            Arc::new(BufferPool::new(
                Arc::new(MemPager::new()),
                BufferPoolConfig {
                    capacity: 8,
                    ..Default::default()
                },
            ))
        };

        let loop_pool = bounded_pool();
        let loop_tree =
            SpGistTree::create(Arc::clone(&loop_pool), DigitTrieOps::default()).unwrap();
        loop_pool.reset_stats();
        loop_tree.insert_all(items.clone()).unwrap();
        loop_pool.flush_all().unwrap();
        let loop_writes = loop_pool.stats().physical_writes;

        let bulk_pool = bounded_pool();
        let bulk_tree =
            SpGistTree::create(Arc::clone(&bulk_pool), DigitTrieOps::default()).unwrap();
        bulk_pool.reset_stats();
        bulk_tree.bulk_build(items).unwrap();
        bulk_pool.flush_all().unwrap();
        let bulk_writes = bulk_pool.stats().physical_writes;

        assert!(
            bulk_writes * 2 < loop_writes,
            "bulk build must write far fewer pages than the insert loop under eviction \
             (bulk {bulk_writes}, loop {loop_writes})"
        );
        assert_eq!(bulk_tree.len(), 6000);
        assert_eq!(bulk_tree.search(&4242).unwrap(), vec![(4242, 4242)]);
    }

    #[test]
    fn persists_and_reopens_from_file() {
        let dir = std::env::temp_dir().join(format!("spgist-tree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.pages");
        let meta;
        {
            let pool = Arc::new(BufferPool::new(
                Arc::new(FilePager::create(&path).unwrap()),
                BufferPoolConfig {
                    capacity: 64,
                    ..Default::default()
                },
            ));
            let tree = SpGistTree::create(pool.clone(), DigitTrieOps::default()).unwrap();
            for key in 0..300u32 {
                tree.insert(key, u64::from(key)).unwrap();
            }
            meta = tree.meta_page();
            pool.flush_all().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(
                Arc::new(FilePager::open(&path).unwrap()),
                BufferPoolConfig {
                    capacity: 64,
                    ..Default::default()
                },
            ));
            let tree = SpGistTree::open(pool, DigitTrieOps::default(), meta).unwrap();
            assert_eq!(tree.len(), 300);
            assert_eq!(tree.search(&123).unwrap(), vec![(123, 123)]);
            assert_eq!(tree.search(&299).unwrap(), vec![(299, 299)]);
            assert!(tree.search(&300).unwrap().is_empty());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nn_search_orders_by_distance() {
        let tree = new_tree();
        for key in [10u32, 20, 30, 40, 500, 600, 9000] {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let neighbours = tree.nn_search(33, 3).unwrap();
        let keys: Vec<u32> = neighbours.iter().map(|(k, _, _)| *k).collect();
        assert_eq!(keys, vec![30, 40, 20]);
        let dists: Vec<f64> = neighbours.iter().map(|(_, _, d)| *d).collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn small_buffer_pool_still_correct_under_eviction() {
        let pool = Arc::new(BufferPool::new(
            Arc::new(MemPager::new()),
            BufferPoolConfig {
                capacity: 4,
                ..Default::default()
            },
        ));
        let tree = SpGistTree::create(pool, DigitTrieOps::default()).unwrap();
        for key in 0..1500u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        for key in (0..1500u32).step_by(101) {
            assert_eq!(tree.search(&key).unwrap(), vec![(key, u64::from(key))]);
        }
        let io = tree.pool().stats();
        assert!(io.evictions > 0, "a 4-frame pool must evict while building");
    }

    #[test]
    fn search_cursor_streams_the_same_results_as_search() {
        let tree = new_tree();
        for key in 0..800u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        for probe in [0u32, 17, 799, 999] {
            let eager = tree.search(&probe).unwrap();
            let streamed: Vec<(u32, u64)> = tree
                .search_cursor(probe)
                .collect::<StorageResult<_>>()
                .unwrap();
            assert_eq!(streamed, eager, "probe {probe}");
        }
        // Early termination: pulling one item must not require a full scan.
        let first = tree.search_cursor(42).next().unwrap().unwrap();
        assert_eq!(first, (42, 42));
    }

    #[test]
    fn search_cursor_on_empty_tree_is_empty() {
        let tree = new_tree();
        assert!(tree.search_cursor(7).next().is_none());
    }

    #[test]
    fn delete_replicated_removes_item_and_counts_once() {
        let tree = new_tree();
        for key in 0..50u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        assert!(tree.delete_replicated(&30, 30).unwrap());
        assert!(!tree.delete_replicated(&30, 30).unwrap());
        assert!(tree.search(&30).unwrap().is_empty());
        assert_eq!(tree.len(), 49);
    }

    #[test]
    fn meta_codec_roundtrip() {
        let cases = [
            (None, 0u64),
            (Some(NodeId::new(3, 9)), 12345u64),
            (Some(NodeId::new(u32::MAX, u16::MAX)), u64::MAX),
        ];
        for (root, count) in cases {
            let bytes = encode_meta(root, count);
            assert_eq!(decode_meta(&bytes).unwrap(), (root, count));
        }
    }

    #[test]
    fn open_cursor_does_not_block_writers() {
        // Under the old tree-wide RwLock this was impossible: insert took
        // `&mut self`, so a live cursor (holding the shared borrow) excluded
        // every writer.  Now the cursor pins an epoch and writers proceed.
        let tree = new_tree();
        for key in 0..300u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let mut cursor = tree.search_cursor(42);
        assert_eq!(cursor.next().unwrap().unwrap(), (42, 42));
        // Churn the tree hard while the cursor is live: splits relocate and
        // retire records, but the pinned epoch keeps the cursor's view
        // readable.
        for key in 300..900u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        assert!(cursor.next().is_none());
        drop(cursor);
        // With the pin gone, the next writer drains the retired backlog.
        tree.insert(900, 900).unwrap();
        assert_eq!(tree.concurrency_stats().retired_backlog, 0);
        assert_eq!(tree.len(), 901);
    }

    #[test]
    fn two_writers_splitting_shared_leaves_lose_no_inserts() {
        // Deterministic collision workload: both threads insert interleaved
        // keys (evens vs odds) that land in the same prefix partitions, so
        // every leaf split is contended.  Starting from an empty tree also
        // exercises the racy root creation.
        let tree = Arc::new(new_tree());
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                let tree = Arc::clone(&tree);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..400u32 {
                        let key = i * 2 + t;
                        tree.insert(key, u64::from(key)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tree.len(), 800, "no insert may be lost");
        for key in 0..800u32 {
            assert_eq!(
                tree.search(&key).unwrap(),
                vec![(key, u64::from(key))],
                "key {key} must be reachable"
            );
        }
        let stats = tree.stats().unwrap();
        assert_eq!(stats.items, 800);
    }

    #[test]
    fn concurrency_stats_count_latches_and_pins() {
        let tree = new_tree();
        for key in 0..200u32 {
            tree.insert(key, u64::from(key)).unwrap();
        }
        let _ = tree.search(&5).unwrap();
        let stats = tree.concurrency_stats();
        assert!(stats.latch_acquisitions > 0, "inserts crab page latches");
        assert!(stats.epoch_pins > 0, "searches pin epochs");
        assert_eq!(stats.active_pins, 0, "no cursor is live");
        assert_eq!(stats.retired_backlog, 0, "unpinned retires drain");
    }
}
