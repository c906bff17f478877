//! The access-path planner.
//!
//! PostgreSQL decides between a sequential scan and the available index scans
//! by comparing estimated costs; [`Planner`] reproduces that decision for one
//! operator of the paper, so the examples and integration tests can show an
//! SP-GiST index actually being *chosen* (or skipped when it cannot help,
//! e.g. a substring query against a plain trie).
//!
//! Queries are boolean [`Predicate`] trees with an optional `LIMIT`.  The
//! crate-internal `plan_query` decomposes a tree into a physical operator
//! tree (`PhysNode`), surfaced as an [`AccessPath`]: index scans for
//! indexable leaves, residual [`AccessPath::Filter`]s for the rest, row-id
//! [`AccessPath::Intersect`]/[`AccessPath::Union`], [`AccessPath::OrderedScan`]s
//! that run `@@` through the incremental NN search costed like any other
//! path, and [`AccessPath::Limit`] pushdown.  The sequential scan competes
//! against every strategy on honest cost and is the fallback when no
//! operator class helps.  Planning is a pure function of the catalog, the
//! table's [`TableStats`], its [`AvailableIndex`]es and the query; it never
//! touches a table.

use std::collections::HashSet;

use spgist_storage::{StorageError, StorageResult};

use crate::am::Catalog;
use crate::cost::{CostEstimate, TableStats, CPU_OPERATOR_COST};
use crate::datum::{Predicate, Query};

/// A query predicate: an operator name applied to an indexed column type.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPredicate {
    /// Operator name, e.g. `"="`, `"#="`, `"?="`, `"@"`, `"^"`, `"@="`,
    /// `"@@"`.
    pub operator: String,
    /// Key type of the column, e.g. `"VARCHAR"` or `"POINT"`.
    pub key_type: String,
    /// Argument-aware selectivity override.  When present it replaces the
    /// operator's class-level default (`eqsel`/`contsel`/`likesel`), letting
    /// the executor tell the planner that e.g. an empty-prefix match
    /// retrieves the whole table.
    pub selectivity: Option<f64>,
}

impl QueryPredicate {
    /// Shorthand constructor.
    pub fn new(operator: &str, key_type: &str) -> Self {
        QueryPredicate {
            operator: operator.to_string(),
            key_type: key_type.to_string(),
            selectivity: None,
        }
    }

    /// Attaches an argument-aware selectivity estimate in `[0, 1]`.
    pub fn with_selectivity(mut self, selectivity: f64) -> Self {
        self.selectivity = Some(selectivity.clamp(0.0, 1.0));
        self
    }
}

/// A physical index available to the planner: its operator class and its
/// measured size/height.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailableIndex {
    /// Name of the index (for plan output).
    pub name: String,
    /// Operator class the index was created with.
    pub operator_class: String,
    /// Number of pages in the index.
    pub pages: u64,
    /// Height of the index in pages.
    pub page_height: u32,
}

/// A physical plan: the operator tree the planner selects for a (possibly
/// compositional) predicate.
///
/// Single predicates plan to the classic leaves (`SeqScan` / `IndexScan` /
/// `OrderedScan`); boolean predicate trees compose them with residual
/// filters, row-id stream intersection/union, and `LIMIT` pushdown.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Full sequential scan of the heap (with the query predicate re-checked
    /// on every tuple; for ordered queries the fallback also sorts).
    SeqScan {
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Index scan through the named index.
    IndexScan {
        /// Index chosen.
        index: String,
        /// Operator class providing the operator.
        operator_class: String,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Ordered (nearest-neighbour) scan through the named index: rows stream
    /// in non-decreasing distance from the query anchor, driven by the
    /// incremental best-first search.
    OrderedScan {
        /// Index chosen.
        index: String,
        /// Operator class providing the `@@` operator.
        operator_class: String,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Residual filter: re-check the predicates the input scan does not
    /// cover against each tuple it produces.
    Filter {
        /// The driving scan.
        input: Box<AccessPath>,
        /// Estimated cost including the re-checks.
        cost: CostEstimate,
    },
    /// Intersection of several row-id streams (`AND` of index scans),
    /// deduplicated by row id.
    Intersect {
        /// The participating scans.
        inputs: Vec<AccessPath>,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// Union of several row-id streams (`OR` of index scans), deduplicated
    /// by row id.
    Union {
        /// The participating scans.
        inputs: Vec<AccessPath>,
        /// Estimated cost.
        cost: CostEstimate,
    },
    /// `LIMIT k` pushed down over the input: the cursor stops pulling after
    /// `k` rows instead of materializing the full result.
    Limit {
        /// The limited plan.
        input: Box<AccessPath>,
        /// Maximum number of rows to report.
        k: usize,
    },
}

impl AccessPath {
    /// The total estimated cost of this path.
    pub fn total_cost(&self) -> f64 {
        match self {
            AccessPath::SeqScan { cost }
            | AccessPath::IndexScan { cost, .. }
            | AccessPath::OrderedScan { cost, .. }
            | AccessPath::Filter { cost, .. }
            | AccessPath::Intersect { cost, .. }
            | AccessPath::Union { cost, .. } => cost.total_cost,
            AccessPath::Limit { input, .. } => input.total_cost(),
        }
    }

    /// True if any node of this plan is an index or ordered scan (i.e. the
    /// plan touches a physical index at all).
    pub fn uses_index(&self) -> bool {
        match self {
            AccessPath::SeqScan { .. } => false,
            AccessPath::IndexScan { .. } | AccessPath::OrderedScan { .. } => true,
            AccessPath::Filter { input, .. } | AccessPath::Limit { input, .. } => {
                input.uses_index()
            }
            AccessPath::Intersect { inputs, .. } | AccessPath::Union { inputs, .. } => {
                inputs.iter().any(AccessPath::uses_index)
            }
        }
    }
}

/// Chooses between sequential and index scans using the catalog and the cost
/// model.
pub struct Planner<'a> {
    catalog: &'a Catalog,
}

impl<'a> Planner<'a> {
    /// Creates a planner over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Planner { catalog }
    }

    /// Picks the cheapest access path for `predicate` over a table with
    /// `stats`, given the physically `available` indexes.
    ///
    /// The comparison against the sequential scan is honest: a predicate
    /// whose (argument-aware) selectivity is poor loses to the heap scan
    /// even when an index supports its operator.
    pub fn plan(
        &self,
        predicate: &QueryPredicate,
        stats: &TableStats,
        available: &[AvailableIndex],
    ) -> AccessPath {
        let mut best = AccessPath::SeqScan {
            cost: CostEstimate::seq_scan(stats),
        };
        for index in available {
            let Some(operator) = self.supported_operator(index, predicate) else {
                continue;
            };
            let selectivity = predicate
                .selectivity
                .unwrap_or_else(|| operator.restrict.estimate(stats.distinct_values));
            let cost = CostEstimate::index_scan(stats, index.pages, index.page_height, selectivity);
            if cost.total_cost < best.total_cost() {
                best = AccessPath::IndexScan {
                    index: index.name.clone(),
                    operator_class: index.operator_class.clone(),
                    cost,
                };
            }
        }
        best
    }

    /// Picks the cheapest *ordered* access path for an `@@` predicate: an
    /// [`AccessPath::OrderedScan`] through an index whose class registers
    /// the ordered operator, or the scan-everything-and-sort fallback.
    /// `k` is the pushed-down `LIMIT`, which caps how much of the index the
    /// best-first search has to visit.
    pub fn plan_ordered(
        &self,
        predicate: &QueryPredicate,
        stats: &TableStats,
        available: &[AvailableIndex],
        k: Option<usize>,
    ) -> AccessPath {
        let mut best = AccessPath::SeqScan {
            cost: CostEstimate::seq_scan_sorted(stats),
        };
        for index in available {
            if self.supported_operator(index, predicate).is_none() {
                continue;
            }
            let cost = CostEstimate::ordered_scan(
                stats,
                index.pages,
                index.page_height,
                k.map(|k| k as u64),
            );
            if cost.total_cost < best.total_cost() {
                best = AccessPath::OrderedScan {
                    index: index.name.clone(),
                    operator_class: index.operator_class.clone(),
                    cost,
                };
            }
        }
        best
    }

    /// The operator of `index`'s class matching `predicate`, if the class
    /// supports it over the right key type.  One lookup doubles as the
    /// support check; an index whose class lacks the operator is simply not
    /// a candidate (no panic path).
    fn supported_operator<'c>(
        &'c self,
        index: &AvailableIndex,
        predicate: &QueryPredicate,
    ) -> Option<&'c crate::operator::Operator> {
        let class = self.catalog.operator_class(&index.operator_class)?;
        if class.key_type != predicate.key_type {
            return None;
        }
        class.operator(&predicate.operator)
    }
}

// ---------------------------------------------------------------------------
// Predicate trees: logical predicate tree → physical operator tree
// ---------------------------------------------------------------------------

/// Everything planning a query needs, gathered once per query by the
/// table it runs on: the catalog's operator classes, the heap statistics
/// and the planner's view of every physical index.
pub(crate) struct PlanContext<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) stats: TableStats,
    pub(crate) available: Vec<AvailableIndex>,
}

/// The executable physical operator tree: the [`AccessPath`] shape plus the
/// actual predicate arguments each operator runs with.
#[derive(Debug, Clone)]
pub(crate) enum PhysNode {
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
    pub(crate) fn access_path(&self) -> AccessPath {
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

/// Plans `query` into an executable physical operator tree — a pure
/// function of the planning context and the query.  The caller has
/// already checked the predicate's key type against its table.
pub(crate) fn plan_query(ctx: &PlanContext<'_>, query: &Query) -> StorageResult<PhysNode> {
    if query.predicate.key_type().is_none() && query.predicate.has_leaves() {
        return Err(StorageError::Unsupported(
            "predicate tree mixes key types".into(),
        ));
    }
    validate_ordered(&query.predicate)?;
    let node = plan_node(ctx, &query.predicate, query.limit)?;
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
    ctx: &PlanContext<'_>,
    predicate: &Predicate,
    limit: Option<usize>,
) -> StorageResult<PhysNode> {
    match predicate {
        Predicate::And(children) => plan_and(ctx, predicate, children, limit),
        Predicate::Or(children) => plan_or(ctx, predicate, children),
        // Negation cannot enumerate its complement from an index.
        Predicate::Not(_) => Ok(seq_scan_node(ctx, predicate)),
        leaf => plan_leaf(ctx, leaf, limit),
    }
}

/// Plans a leaf predicate: the classic one-operator access-path choice,
/// ordered (`@@`) leaves going through [`Planner::plan_ordered`].
fn plan_leaf(
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
        _ => seq_scan_node(ctx, leaf),
    })
}

/// The always-available fallback: scan the heap, re-check `predicate` on
/// every tuple — and, for ordered queries, sort by anchor distance
/// before reporting (which is why the planner prices it with the
/// scan-and-sort estimate).
fn seq_scan_node(ctx: &PlanContext<'_>, predicate: &Predicate) -> PhysNode {
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
        let driver = plan_leaf(ctx, &children[driver_idx], effective_limit)?;
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
                let fallback = seq_scan_node(ctx, whole);
                if filtered.total_cost() <= fallback.total_cost() {
                    filtered
                } else {
                    fallback
                }
            }
            // No ordered index: the sorted heap fallback filters inline.
            _ => seq_scan_node(ctx, whole),
        });
    }

    let seq = seq_scan_node(ctx, whole);
    let mut indexable: Vec<(usize, PhysNode)> = Vec::new();
    for (i, child) in children.iter().enumerate() {
        let node = plan_node(ctx, child, None)?;
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
    ctx: &PlanContext<'_>,
    whole: &Predicate,
    children: &[Predicate],
) -> StorageResult<PhysNode> {
    let seq = seq_scan_node(ctx, whole);
    let mut inputs = Vec::new();
    for child in children {
        let node = plan_node(ctx, child, None)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use spgist_indexes::geom::Point;

    fn stats() -> TableStats {
        TableStats {
            rows: 2_000_000,
            heap_pages: 20_000,
            distinct_values: 1_500_000,
        }
    }

    fn indexes() -> Vec<AvailableIndex> {
        vec![
            AvailableIndex {
                name: "sp_trie_index".into(),
                operator_class: "SP_GiST_trie".into(),
                pages: 9_000,
                page_height: 4,
            },
            AvailableIndex {
                name: "btree_index".into(),
                operator_class: "btree_varchar".into(),
                pages: 7_000,
                page_height: 3,
            },
            AvailableIndex {
                name: "sp_suffix_index".into(),
                operator_class: "SP_GiST_suffix".into(),
                pages: 40_000,
                page_height: 5,
            },
        ]
    }

    #[test]
    fn predicate_trees_plan_from_statistics_alone() {
        let catalog = Catalog::with_paper_defaults();
        let with = |available| PlanContext {
            catalog: &catalog,
            stats: stats(),
            available,
        };
        let query = Predicate::str_prefix("spa")
            .and(Predicate::str_substring("ace"))
            .limit(5);
        let limited_input = |ctx: &PlanContext<'_>| match plan_query(ctx, &query) {
            Ok(node) => match node.access_path() {
                AccessPath::Limit { input, k: 5 } => *input,
                other => panic!("expected the LIMIT on top, got {other:?}"),
            },
            Err(e) => panic!("planning failed: {e}"),
        };
        assert!(limited_input(&with(indexes())).uses_index());
        assert!(matches!(
            limited_input(&with(Vec::new())),
            AccessPath::SeqScan { .. }
        ));
        // Trees no table could answer are rejected before any leaf plans.
        let mixed = Predicate::str_prefix("a").and(Predicate::point_equals(Point::new(0.0, 0.0)));
        assert!(plan_query(&with(indexes()), &mixed.into()).is_err());
        let negated_nn = Predicate::str_nearest("a").negate();
        assert!(plan_query(&with(indexes()), &negated_nn.into()).is_err());
    }

    #[test]
    fn regex_queries_can_only_use_the_trie() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        let path = planner.plan(&QueryPredicate::new("?=", "VARCHAR"), &stats(), &indexes());
        match path {
            AccessPath::IndexScan { index, .. } => assert_eq!(index, "sp_trie_index"),
            other => panic!("expected an index scan, got {other:?}"),
        }
    }

    #[test]
    fn substring_queries_use_the_suffix_tree() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        let path = planner.plan(&QueryPredicate::new("@=", "VARCHAR"), &stats(), &indexes());
        match path {
            AccessPath::IndexScan { index, .. } => assert_eq!(index, "sp_suffix_index"),
            other => panic!("expected an index scan, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_operator_falls_back_to_seq_scan() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        // No string index supports the spatial containment operator.
        let path = planner.plan(&QueryPredicate::new("^", "VARCHAR"), &stats(), &indexes());
        assert!(matches!(path, AccessPath::SeqScan { .. }));
        // Without any physical index the planner also falls back.
        let path = planner.plan(&QueryPredicate::new("=", "VARCHAR"), &stats(), &[]);
        assert!(matches!(path, AccessPath::SeqScan { .. }));
    }

    #[test]
    fn poor_selectivity_loses_to_the_seq_scan_even_with_an_index() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        // An empty-prefix match retrieves every row; the executor reports
        // that through the selectivity override, and the planner must route
        // it to the heap despite the matching trie.
        let all = QueryPredicate::new("#=", "VARCHAR").with_selectivity(1.0);
        assert!(matches!(
            planner.plan(&all, &stats(), &indexes()),
            AccessPath::SeqScan { .. }
        ));
        // The same operator with a selective argument keeps the index, so
        // the crossover exists and sits between the two.
        let selective = QueryPredicate::new("#=", "VARCHAR").with_selectivity(1e-4);
        assert!(matches!(
            planner.plan(&selective, &stats(), &indexes()),
            AccessPath::IndexScan { .. }
        ));
    }

    #[test]
    fn ordered_scans_route_to_an_nn_capable_index() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        let nn = QueryPredicate::new("@@", "VARCHAR");
        // With a small LIMIT the trie's incremental NN search wins.
        let path = planner.plan_ordered(&nn, &stats(), &indexes(), Some(10));
        match path {
            AccessPath::OrderedScan { index, .. } => assert_eq!(index, "sp_trie_index"),
            other => panic!("expected an ordered scan, got {other:?}"),
        }
        // The suffix tree and the B⁺-tree register no `@@`; without the trie
        // the fallback is scan-and-sort.
        let no_trie: Vec<AvailableIndex> = indexes()
            .into_iter()
            .filter(|i| i.operator_class != "SP_GiST_trie")
            .collect();
        assert!(matches!(
            planner.plan_ordered(&nn, &stats(), &no_trie, Some(10)),
            AccessPath::SeqScan { .. }
        ));
    }

    #[test]
    fn equality_picks_the_cheaper_of_trie_and_btree() {
        let catalog = Catalog::with_paper_defaults();
        let planner = Planner::new(&catalog);
        let path = planner.plan(&QueryPredicate::new("=", "VARCHAR"), &stats(), &indexes());
        match path {
            AccessPath::IndexScan { cost, .. } => {
                assert!(cost.total_cost < CostEstimate::seq_scan(&stats()).total_cost);
            }
            other => panic!("expected an index scan, got {other:?}"),
        }
    }
}
