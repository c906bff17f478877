//! Turns the traced run's records into the per-layer metrics, and prints
//! the layer accounting, the tracing overhead, and which counts are steady.

use std::time::Instant;

use spgist_storage::StorageResult;

use crate::gen::{ReadKind, Tab};
use crate::run::Runner;
use crate::stats::{mean, percentile, Metrics};
use crate::trace::{self, ClassReport, ReplayResult};
use crate::workload::Class;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean µs of `Table::datum` on rows the traced reads returned, after one
/// warming pass.
fn heap_fetch_us(r: &Runner) -> f64 {
    let db = r.db.as_ref().expect("recovered database is open");
    let trace = r.trace.as_ref().expect("traced run");
    let rows: Vec<_> = trace
        .fetched_rows
        .iter()
        .filter(|(tab, row)| r.model.table(*tab).get(*row).is_some())
        .collect();
    let fetch = |timed: bool| -> f64 {
        let start = Instant::now();
        for (tab, row) in &rows {
            if let Some(table) = db.table(tab.name()) {
                let _ = std::hint::black_box(table.datum(*row));
            }
        }
        if timed {
            crate::stats::us(start.elapsed()) / rows.len().max(1) as f64
        } else {
            0.0
        }
    };
    fetch(false);
    fetch(true)
}

/// Sums a field over the classes.
fn total(classes: &[(Tab, Class, ClassReport)], f: impl Fn(&ClassReport) -> f64) -> f64 {
    classes.iter().map(|(_, _, c)| f(c)).sum()
}

/// Computes every per-layer metric and prints the accounting.
pub fn metrics(r: &Runner) -> StorageResult<Metrics> {
    let trace = r.trace.as_ref().expect("traced run");
    let dir = r.dir.as_path();
    let wrappers = trace::replay(&trace.initial, &trace.log, r.pool_capacity, dir, true)?;
    let cores = trace::replay(&trace.initial, &trace.log, r.pool_capacity, dir, false)?;
    let (hit_ns, miss_ns) = trace::pool_hit_miss(&dir.join("crash").join("bench.db"))?;
    let fetch_us = heap_fetch_us(r);
    let mut m = Metrics::default();

    // planner / exec
    let reads = &trace.reads;
    let n_reads = reads.len() as f64;
    let q_errors: Vec<f64> = reads
        .iter()
        .map(|t| {
            let (est, act) = (t.estimated_rows.max(1.0), (t.rows as f64).max(1.0));
            (est / act).max(act / est)
        })
        .collect();
    let shadow_us = |t: &crate::run::TracedRead| -> f64 {
        t.index
            .as_ref()
            .and_then(|name| wrappers.read_us.get(&(t.log_index, name.clone())))
            .copied()
            .unwrap_or(0.0)
    };
    let plan_us = mean(&reads.iter().map(|t| t.plan_us).collect::<Vec<_>>());
    let query_us: Vec<f64> = reads.iter().map(|t| t.open_us + t.drain_us).collect();
    let index_us: Vec<f64> = reads.iter().map(shadow_us).collect();
    let rows_total: f64 = reads.iter().map(|t| t.rows as f64).sum();
    m.set("planner.plan_us", plan_us, "us");
    m.set("planner.q_error_p90", percentile(&q_errors, 0.9), "ratio");
    m.set(
        "planner.seqscan_frac",
        ratio(reads.iter().filter(|t| t.seq_scan).count() as f64, n_reads),
        "ratio",
    );
    m.set(
        "exec.open_us",
        mean(&reads.iter().map(|t| t.open_us).collect::<Vec<_>>()),
        "us",
    );
    m.set(
        "exec.us_per_row",
        ratio(reads.iter().map(|t| t.drain_us).sum(), rows_total.max(1.0)),
        "us",
    );
    m.set("exec.rows_per_query", ratio(rows_total, n_reads), "count");
    m.set("exec.self_us", mean(&query_us) - mean(&index_us), "us");

    // dml / durable / wal
    m.set("dml.insert_us", mean(&trace.insert_us), "us");
    m.set("dml.delete_us", mean(&trace.delete_us), "us");
    m.set("dml.commit_us", mean(&trace.commit_us), "us");
    let ck = &trace.checkpoints;
    let ck_mean = |f: &dyn Fn(&spgist_storage::CheckpointStats) -> f64| {
        mean(&ck.iter().map(|(_, s)| f(s)).collect::<Vec<_>>())
    };
    m.set(
        "checkpoint.ms",
        mean(&ck.iter().map(|(ms, _)| *ms).collect::<Vec<_>>()),
        "ms",
    );
    m.set(
        "checkpoint.pages_flushed",
        ck_mean(&|s| s.data_pages_flushed as f64),
        "count",
    );
    m.set(
        "checkpoint.chunks_written",
        ck_mean(&|s| s.chunks_written as f64),
        "count",
    );
    m.set(
        "checkpoint.journal_bytes",
        ck_mean(&|s| s.journal_bytes as f64),
        "B",
    );
    m.set(
        "checkpoint.quiesce_us",
        ck_mean(&|s| s.quiesce_nanos as f64 / 1e3),
        "us",
    );
    m.set(
        "recovery.wal_records",
        trace.recovery_records as f64,
        "count",
    );
    let commits = trace.commits as f64;
    let rows_written = trace.rows_written as f64;
    m.set(
        "wal.syncs_per_commit",
        ratio(trace.wal_syncs as f64, commits),
        "count",
    );
    m.set(
        "wal.records_per_commit",
        ratio(trace.wal_records as f64, commits),
        "count",
    );
    m.set(
        "wal.bytes_per_row",
        ratio(trace.wal_bytes as f64, rows_written),
        "B",
    );

    // indexes (shadow replay on the SpIndex wrappers)
    let wc = &wrappers.classes;
    let all = |f: fn(&ClassReport) -> &Vec<f64>| -> Vec<f64> {
        wc.iter()
            .flat_map(|(_, _, c)| f(c).iter().copied())
            .collect()
    };
    m.set("index.search_us", mean(&all(|c| &c.search_us)), "us");
    m.set("index.knn_us", mean(&all(|c| &c.knn_us)), "us");
    m.set("index.insert_us", mean(&all(|c| &c.insert_us)), "us");
    let replicated: Vec<f64> = wc
        .iter()
        .filter(|(_, class, _)| class.replicates())
        .map(|(_, _, c)| ratio(c.stats.items as f64, c.len as f64))
        .collect();
    m.set("index.replication", mean(&replicated), "ratio");

    // core (counting adapter on standalone trees)
    let cc = &cores.classes;
    let queries = total(cc, |c| c.queries as f64);
    let knns = total(cc, |c| c.knns as f64);
    let inserts = total(cc, |c| c.inserts as f64);
    m.set(
        "core.consistent_per_query",
        ratio(total(cc, |c| c.consistent as f64), queries + knns),
        "count",
    );
    m.set(
        "core.leaf_checks_per_query",
        ratio(total(cc, |c| c.leaf as f64), queries + knns),
        "count",
    );
    m.set(
        "core.dist_calls_per_knn",
        ratio(total(cc, |c| c.dist as f64), knns),
        "count",
    );
    m.set(
        "core.choose_per_insert",
        ratio(total(cc, |c| c.choose as f64), inserts),
        "count",
    );
    m.set(
        "core.picksplit_per_insert",
        ratio(total(cc, |c| c.picksplit as f64), inserts),
        "count",
    );
    m.set(
        "core.picksplit_us",
        ratio(
            total(cc, |c| c.picksplit_ns as f64) / 1e3,
            total(cc, |c| c.picksplit as f64),
        ),
        "us",
    );
    m.set(
        "core.retired_per_insert",
        ratio(total(cc, |c| c.retired as f64), inserts),
        "count",
    );
    m.set(
        "core.page_height",
        cc.iter()
            .map(|(_, _, c)| c.stats.max_page_height)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    m.set(
        "core.utilization",
        ratio(
            total(cc, |c| c.stats.utilization * c.stats.pages as f64),
            total(cc, |c| c.stats.pages as f64),
        ),
        "ratio",
    );

    // buffer pool
    let read_logical: f64 = reads.iter().map(|t| t.io.logical_reads as f64).sum();
    let read_physical: f64 = reads.iter().map(|t| t.io.physical_reads as f64).sum();
    let ops = trace.ops as f64;
    m.set(
        "pool.logical_reads_per_read",
        ratio(read_logical, n_reads),
        "count",
    );
    m.set(
        "pool.logical_reads_per_write",
        ratio(trace.write_io.logical_reads as f64, rows_written),
        "count",
    );
    m.set(
        "pool.hit_ratio",
        1.0 - ratio(read_physical, read_logical),
        "ratio",
    );
    m.set(
        "pool.evictions_per_op",
        ratio(trace.run_io.evictions as f64, ops),
        "count",
    );
    m.set("pool.frames_peak", trace.frames_peak as f64, "count");
    m.set("pool.hit_ns", hit_ns, "ns");
    m.set("pool.miss_ns", miss_ns, "ns");

    // pager (timing pager under the measured database and its reopens)
    let p = &trace.run_pager;
    let all_reads = p.plus(&trace.recovery_pager);
    m.set("pager.reads_per_op", ratio(p.reads as f64, ops), "count");
    m.set(
        "pager.read_us",
        ratio(all_reads.read_ns as f64 / 1e3, all_reads.reads as f64),
        "us",
    );
    m.set("pager.writes", p.writes as f64, "count");
    m.set(
        "pager.write_us",
        ratio(p.write_ns as f64 / 1e3, p.writes as f64),
        "us",
    );
    m.set("pager.syncs", p.syncs as f64, "count");
    m.set(
        "pager.sync_us",
        ratio(p.sync_ns as f64 / 1e3, p.syncs as f64),
        "us",
    );
    m.set(
        "pager.bytes_written_per_row",
        ratio(
            p.writes as f64 * spgist_storage::PAGE_SIZE as f64,
            rows_written,
        ),
        "B",
    );

    // heap / epoch
    m.set("heap.fetch_us", fetch_us, "us");
    m.set(
        "epoch.pin_us",
        ratio(
            total(wc, |c| c.epoch_pin_ns as f64) / 1e3,
            total(wc, |c| c.epoch_pins as f64),
        ),
        "us",
    );

    print_detail(&wrappers, &cores);
    let index_write_us = total(&wrappers.classes, |c| {
        c.insert_us.iter().chain(&c.delete_us).sum()
    });
    print_accounting(r, &m, &query_us, &index_us, fetch_us, index_write_us);
    print_counts(r, &wrappers, &cores);
    Ok(m)
}

/// The per-class breakdown behind the aggregated index and core metrics.
fn print_detail(wrappers: &ReplayResult, cores: &ReplayResult) {
    for ((tab, class, w), (_, _, c)) in wrappers.classes.iter().zip(&cores.classes) {
        let n = format!("{}.{}", class.name(), tab.name());
        let per = |x: u64, d: u64| ratio(x as f64, d as f64);
        println!(
            "detail index.{n}: search_us={:.2} knn_us={:.2} insert_us={:.2} delete_us={:.2} items/len={:.3}",
            mean(&w.search_us),
            mean(&w.knn_us),
            mean(&w.insert_us),
            mean(&w.delete_us),
            per(w.stats.items, w.len)
        );
        println!(
            "detail core.{n}: consistent_per_query={:.2} leaf_checks_per_query={:.2} dist_calls_per_knn={:.2} \
             choose_per_insert={:.2} picksplit_per_insert={:.4} picksplit_us={:.2} retired_per_insert={:.3} \
             page_height={} utilization={:.4}",
            per(c.consistent, c.queries + c.knns),
            per(c.leaf, c.queries + c.knns),
            per(c.dist, c.knns),
            per(c.choose, c.inserts),
            per(c.picksplit, c.inserts),
            ratio(c.picksplit_ns as f64 / 1e3, c.picksplit as f64),
            per(c.retired, c.inserts),
            c.stats.max_page_height,
            c.stats.utilization
        );
    }
}

/// Layer self-times along the blocking path of a read and of a write, their
/// sum, the remainder against the untraced end-to-end time, and the tracing
/// overhead (traced minus untraced).
fn print_accounting(
    r: &Runner,
    m: &Metrics,
    query_us: &[f64],
    index_us: &[f64],
    fetch_us: f64,
    index_write_us: f64,
) {
    let trace = r.trace.as_ref().expect("traced run");
    let e2e_read = mean(&trace.untraced_read_us);
    let traced_read = m.get("planner.plan_us") + mean(query_us);
    let rows = m.get("exec.rows_per_query");
    let (planner, index, heap) = (m.get("planner.plan_us"), mean(index_us), rows * fetch_us);
    let sum = planner + index + heap;
    println!(
        "accounting read (us/query): planner {planner:.2} + index {index:.2} + heap {heap:.2} = {sum:.2}; \
         untraced end-to-end {e2e_read:.2}; remainder (exec self and unattributed) {:.2}",
        e2e_read - sum
    );
    println!(
        "tracing overhead read: traced {traced_read:.2} - untraced {e2e_read:.2} = {:.2} us/query",
        traced_read - e2e_read
    );
    let e2e_txn = mean(&trace.untraced_txn_us);
    let traced_txn = mean(&trace.traced_txn_us);
    let index = ratio(index_write_us, trace.commits as f64);
    let commit = mean(&trace.commit_us);
    let auto = matches!(r.spec.mix, crate::workload::Mix::TextSearch { .. });
    // An auto-commit statement's commit wait is inside its statement time
    // and is not timed apart: only the index share is attributed there.
    let wait = if auto { 0.0 } else { commit };
    let sum = index + wait;
    println!(
        "accounting write (us/commit): index {index:.2} + commit wait {wait:.2} = {sum:.2}; \
         untraced end-to-end {e2e_txn:.2}; remainder (dml self: heap, WAL submit, undo) {:.2}",
        e2e_txn - sum
    );
    println!(
        "tracing overhead write: traced {traced_txn:.2} - untraced {e2e_txn:.2} = {:.2} us/commit",
        traced_txn - e2e_txn
    );
    let kinds = [ReadKind::Lookup, ReadKind::Range, ReadKind::Knn];
    for kind in kinds {
        let plan: Vec<f64> = trace
            .reads
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.plan_us)
            .collect();
        let q: Vec<f64> = trace
            .reads
            .iter()
            .filter(|t| t.kind == kind)
            .map(|t| t.open_us + t.drain_us)
            .collect();
        println!(
            "accounting read {kind:?}: n={} planner {:.2} us, query {:.2} us",
            q.len(),
            mean(&plan),
            mean(&q)
        );
    }
}

/// Counts that repeat exactly between runs with one seed, and the spread
/// of the timing-dependent ones.
fn print_counts(r: &Runner, wrappers: &ReplayResult, cores: &ReplayResult) {
    let trace = r.trace.as_ref().expect("traced run");
    let read_logical: u64 = trace.reads.iter().map(|t| t.io.logical_reads).sum();
    let ck_pages: u64 = trace
        .checkpoints
        .iter()
        .map(|(_, s)| s.data_pages_flushed)
        .sum();
    let ck_chunks: u64 = trace
        .checkpoints
        .iter()
        .map(|(_, s)| s.chunks_written)
        .sum();
    println!(
        "steady pool.logical_reads: reads={read_logical} writes={} run={}",
        trace.write_io.logical_reads, trace.run_io.logical_reads
    );
    println!(
        "steady checkpoint: count={} pages_flushed={ck_pages} chunks_written={ck_chunks}",
        trace.checkpoints.len()
    );
    for (tab, class, c) in &cores.classes {
        println!(
            "steady core.{}.{}: consistent={} leaf={} dist={} choose={} picksplit={} retired={}",
            class.name(),
            tab.name(),
            c.consistent,
            c.leaf,
            c.dist,
            c.choose,
            c.picksplit,
            c.retired
        );
    }
    for (tab, class, w) in &wrappers.classes {
        let s = &w.stats;
        println!(
            "steady tree.{}.{}: items={} len={} inner={} leaves={} pages={} page_height={}",
            class.name(),
            tab.name(),
            s.items,
            w.len,
            s.inner_nodes,
            s.leaf_nodes,
            s.pages,
            s.max_page_height
        );
    }
    let spc: Vec<f64> = trace.syncs_per_commit.iter().map(|&s| s as f64).collect();
    println!(
        "timing-dependent wal.syncs: total={} per commit min={} p25={} p50={} p75={} max={}; pager.syncs={}",
        trace.wal_syncs,
        percentile(&spc, 0.0),
        percentile(&spc, 0.25),
        percentile(&spc, 0.5),
        percentile(&spc, 0.75),
        percentile(&spc, 1.0),
        trace.run_pager.syncs
    );
}
