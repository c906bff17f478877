//! Selectivity and cost estimation (the `spgistcostestimate` analog of
//! paper Section 4.2).

/// Restriction-selectivity estimators associated with operators
/// (`restrict = eqsel | contsel | likesel` in the paper's Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selectivity {
    /// Equality operators: selectivity ≈ 1 / distinct values.
    EqSel,
    /// Containment (range) operators.
    ContSel,
    /// Similarity operators (prefix, LIKE, regular expression).
    LikeSel,
}

impl Selectivity {
    /// Estimated fraction of table rows an operator of this kind retrieves.
    /// The constants follow PostgreSQL's built-in defaults
    /// (`DEFAULT_EQ_SEL`, `DEFAULT_RANGE_INEQ_SEL`, `DEFAULT_MATCH_SEL`).
    pub fn estimate(&self, distinct_values: u64) -> f64 {
        match self {
            Selectivity::EqSel => {
                if distinct_values > 0 {
                    1.0 / distinct_values as f64
                } else {
                    0.005
                }
            }
            Selectivity::ContSel => 0.005,
            Selectivity::LikeSel => 0.01,
        }
    }
}

/// Statistics of the underlying table used by the cost model (the analog of
/// `pg_class.reltuples` / `relpages`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableStats {
    /// Number of rows in the table.
    pub rows: u64,
    /// Number of heap pages.
    pub heap_pages: u64,
    /// Number of distinct key values (for `eqsel`).
    pub distinct_values: u64,
}

/// The four quantities the paper's `spgistcostestimate` produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated fraction of table rows retrieved.
    pub selectivity: f64,
    /// Correlation between index order and table order; 0 for SP-GiST because
    /// its entries have no order.
    pub correlation: f64,
    /// CPU cost paid once before the scan starts.
    pub startup_cost: f64,
    /// Startup cost plus estimated page I/O cost.
    pub total_cost: f64,
}

/// Cost of reading one page sequentially (PostgreSQL `seq_page_cost`).
pub const SEQ_PAGE_COST: f64 = 1.0;
/// Cost of reading one page at random (PostgreSQL `random_page_cost`).
pub const RANDOM_PAGE_COST: f64 = 4.0;
/// CPU cost per tuple visited.
pub const CPU_TUPLE_COST: f64 = 0.01;
/// CPU cost per operator/predicate evaluation on a tuple
/// (PostgreSQL `cpu_operator_cost`).  Charged for index-tuple re-checks,
/// residual-filter evaluations and priority-queue work in ordered scans.
pub const CPU_OPERATOR_COST: f64 = 0.0025;
impl CostEstimate {
    /// Cost of a full sequential scan of the table.
    pub fn seq_scan(stats: &TableStats) -> CostEstimate {
        CostEstimate {
            selectivity: 1.0,
            correlation: 0.0,
            startup_cost: 0.0,
            total_cost: stats.heap_pages as f64 * SEQ_PAGE_COST
                + stats.rows as f64 * (CPU_TUPLE_COST + CPU_OPERATOR_COST),
        }
    }

    /// Cost of an index scan: descend `index_height` pages, then fetch the
    /// selected fraction of index and heap pages at random.  `index_pages` is
    /// the size of the index.  This mirrors the structure of the generic cost
    /// estimator the paper's `spgistcostestimate` delegates to.
    pub fn index_scan(
        stats: &TableStats,
        index_pages: u64,
        index_height: u32,
        selectivity: f64,
    ) -> CostEstimate {
        let rows_fetched = stats.rows as f64 * selectivity;
        let index_leaf_pages = (index_pages as f64 * selectivity).ceil();
        let heap_pages_fetched = (stats.heap_pages as f64 * selectivity).ceil();
        let startup_cost = f64::from(index_height) * RANDOM_PAGE_COST;
        CostEstimate {
            selectivity,
            correlation: 0.0,
            startup_cost,
            total_cost: startup_cost
                + (index_leaf_pages + heap_pages_fetched) * RANDOM_PAGE_COST
                + rows_fetched * (CPU_TUPLE_COST + CPU_OPERATOR_COST),
        }
    }

    /// Cost of an ordered (nearest-neighbour) index scan driven by the
    /// incremental best-first search: descend `index_height` pages to seed
    /// the priority queue, then fetch roughly the reported fraction of index
    /// and heap pages at random, paying queue maintenance per reported row.
    /// `k` is the pushed-down `LIMIT`; without one the whole table is
    /// reported in distance order.
    pub fn ordered_scan(
        stats: &TableStats,
        index_pages: u64,
        index_height: u32,
        k: Option<u64>,
    ) -> CostEstimate {
        let rows = stats.rows.max(1);
        let reported = k.map_or(rows, |k| k.min(rows).max(1));
        let fraction = reported as f64 / rows as f64;
        let startup_cost = f64::from(index_height) * RANDOM_PAGE_COST;
        let index_pages_fetched = (index_pages as f64 * fraction).ceil();
        let heap_pages_fetched = (stats.heap_pages as f64 * fraction).ceil();
        // log₂-ish priority-queue factor per reported row.
        let queue_depth = (rows as f64).log2().max(1.0);
        CostEstimate {
            selectivity: fraction,
            correlation: 0.0,
            startup_cost,
            total_cost: startup_cost
                + (index_pages_fetched + heap_pages_fetched) * RANDOM_PAGE_COST
                + reported as f64 * (CPU_TUPLE_COST + queue_depth * CPU_OPERATOR_COST),
        }
    }

    /// Cost of answering an ordered query without an index: scan the whole
    /// heap, compute every distance, sort.  The full scan-and-sort happens
    /// before the first row comes out, so the startup cost is nearly the
    /// total — the planner's reason to prefer an incremental ordered scan
    /// whenever one exists.
    pub fn seq_scan_sorted(stats: &TableStats) -> CostEstimate {
        let seq = Self::seq_scan(stats);
        let rows = stats.rows.max(1) as f64;
        let sort_cost = rows * rows.log2().max(1.0) * CPU_OPERATOR_COST;
        CostEstimate {
            selectivity: 1.0,
            correlation: 0.0,
            startup_cost: seq.total_cost + sort_cost,
            total_cost: seq.total_cost + sort_cost + rows * CPU_TUPLE_COST,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: TableStats = TableStats {
        rows: 1_000_000,
        heap_pages: 10_000,
        distinct_values: 900_000,
    };

    #[test]
    fn selectivity_defaults() {
        assert!((Selectivity::EqSel.estimate(1000) - 0.001).abs() < 1e-12);
        assert_eq!(Selectivity::EqSel.estimate(0), 0.005);
        assert_eq!(Selectivity::ContSel.estimate(123), 0.005);
        assert_eq!(Selectivity::LikeSel.estimate(123), 0.01);
    }

    #[test]
    fn selective_index_scan_beats_seq_scan() {
        let seq = CostEstimate::seq_scan(&STATS);
        let idx = CostEstimate::index_scan(&STATS, 5_000, 3, 1e-6);
        assert!(idx.total_cost < seq.total_cost);
        assert!(idx.startup_cost > 0.0);
        assert_eq!(idx.correlation, 0.0);
    }

    #[test]
    fn unselective_index_scan_loses_to_seq_scan() {
        let seq = CostEstimate::seq_scan(&STATS);
        let idx = CostEstimate::index_scan(&STATS, 5_000, 3, 0.9);
        assert!(
            idx.total_cost > seq.total_cost,
            "random I/O makes a 90% scan slower"
        );
    }

    #[test]
    fn ordered_scan_with_a_small_limit_is_cheap_and_incremental() {
        let idx = CostEstimate::ordered_scan(&STATS, 5_000, 3, Some(10));
        let sorted = CostEstimate::seq_scan_sorted(&STATS);
        assert!(idx.total_cost < sorted.total_cost / 100.0);
        assert!(
            idx.startup_cost < sorted.startup_cost,
            "best-first search reports its first row without a full sort"
        );
        // Without a limit the ordered scan reports everything; it still
        // avoids the sort but pays for the full fetch.
        let full = CostEstimate::ordered_scan(&STATS, 5_000, 3, None);
        assert!(full.total_cost > idx.total_cost);
        assert_eq!(full.selectivity, 1.0);
    }

    #[test]
    fn index_scan_crossover_tracks_selectivity() {
        // The regression the planner relies on: as a predicate's estimated
        // selectivity degrades, the index scan must cross over and lose to
        // the sequential scan instead of being preferred unconditionally.
        let seq = CostEstimate::seq_scan(&STATS);
        assert!(CostEstimate::index_scan(&STATS, 5_000, 3, 0.001).total_cost < seq.total_cost);
        assert!(CostEstimate::index_scan(&STATS, 5_000, 3, 1.0).total_cost > seq.total_cost);
        let crossover = (0..=100)
            .map(|i| i as f64 / 100.0)
            .find(|&s| CostEstimate::index_scan(&STATS, 5_000, 3, s).total_cost > seq.total_cost)
            .expect("a crossover point must exist");
        assert!(
            crossover > 0.0 && crossover < 0.5,
            "random-I/O penalty puts the crossover well below half the table, got {crossover}"
        );
    }
}
