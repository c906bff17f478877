//! The repository benchmark: three workloads on a durable `Database`
//! (file pager plus WAL), driven through the public API by one closed-loop
//! client.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload geo-serve --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object with the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
//! a traced run (fixed operation count, layer timings around every call,
//! shadow replays).  See `perfbench/README.md`.

mod gen;
mod layers;
mod model;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gen::ReadKind;
use run::{Runner, TraceLog};
use stats::{median, percentile, Metrics};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// The run's scratch directory inside the working directory, removed when
/// the run ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir =
            PathBuf::from(".perfbench-tmp").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (geo-serve, geo-ingest, text-search)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let scratch = match ScratchDir::new(spec.name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runner = Runner::new(spec, scratch.0.clone(), args.seed);
    match drive(&mut runner, &args) {
        Ok(metrics) => {
            let failed = runner.failed;
            let attempted = runner.attempted.max(1);
            println!(
                "workload {} seed {} trace {}: attempted {attempted}, failed {failed}, failed_frac {}",
                runner.spec.name,
                args.seed,
                u8::from(args.trace),
                failed as f64 / attempted as f64
            );
            for e in &runner.errors {
                println!("failure: {e}");
            }
            drop(runner);
            drop(scratch);
            println!(
                "{}",
                stats::result_json(failed == 0, attempted, failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive(r: &mut Runner, args: &Args) -> Result<Metrics, String> {
    if args.trace {
        r.trace = Some(TraceLog::default());
    }
    let reps = if args.trace { 1 } else { workload::SETUP_REPS };
    r.setup(args.seed, reps)?;
    r.warm_up(500);
    r.begin_run();
    let rounds = if args.trace {
        2 * r.spec.trace_rounds
    } else {
        ((args.seconds as f64 * r.spec.rounds_per_second).ceil() as usize).max(2)
    };
    let start = Instant::now();
    r.measure(rounds);
    println!(
        "measured phase: {rounds} rounds in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    r.crash_and_recover()?;
    println!(
        "pinned: pool capacity {} pages = {} x {} data pages after set-up; policy, WAL and clustering from engine defaults",
        r.pool_capacity, r.spec.pool_ratio, r.data_pages
    );
    if args.trace {
        return layers::metrics(r).map_err(|e| format!("traced replay failed: {e}"));
    }
    Ok(end_to_end(r))
}

fn end_to_end(r: &Runner) -> Metrics {
    let rec = &r.rec;
    let lat = |kind: Option<ReadKind>| -> Vec<f64> {
        rec.reads
            .iter()
            .filter(|(k, _, _)| kind.is_none_or(|want| *k == want))
            .map(|(_, _, us)| *us)
            .collect()
    };
    let all = lat(None);
    let commit_us: Vec<f64> = rec.commits.iter().map(|(us, _)| *us).collect();
    let read_tail = stats::supported_tail(all.len());
    println!(
        "samples: reads {} (read_p99_us is p{:.1}), commits {}, checkpoints {}, setups {}, recoveries {}",
        all.len(),
        read_tail * 100.0,
        commit_us.len(),
        rec.checkpoint_ms.len(),
        rec.setup_s.len(),
        rec.recover_s.len()
    );
    let mut labels: Vec<&str> = rec.reads.iter().map(|(_, l, _)| *l).collect();
    labels.sort_unstable();
    labels.dedup();
    for label in labels {
        let v: Vec<f64> = rec
            .reads
            .iter()
            .filter(|(_, l, _)| *l == label)
            .map(|(_, _, us)| *us)
            .collect();
        println!(
            "read {label}: n={} p50={:.2} us p90={:.2} us",
            v.len(),
            median(&v),
            percentile(&v, 0.9)
        );
    }

    // Every figure is read over the whole run: the host's speed drifts in
    // stretches of seconds, and a whole-run figure averages over them.
    let commit_rows: f64 = rec.commits.iter().map(|(_, rows)| rows).sum();
    let mut m = Metrics::default();
    m.set("setup_s", median(&rec.setup_s), "s");
    m.set(
        "read_qps",
        all.len() as f64 / (all.iter().sum::<f64>() / 1e6),
        "ops/s",
    );
    m.set("read_p50_us", median(&all), "us");
    m.set("read_p99_us", percentile(&all, read_tail), "us");
    m.set("lookup_p50_us", median(&lat(Some(ReadKind::Lookup))), "us");
    m.set("range_p50_us", median(&lat(Some(ReadKind::Range))), "us");
    m.set("knn_p50_us", median(&lat(Some(ReadKind::Knn))), "us");
    // Rows per commit at the median commit time: a run has a few hundred
    // commits, and a mean over them swings with a single stalled fsync.
    let rows_per_commit = commit_rows / commit_us.len().max(1) as f64;
    m.set(
        "write_rows_s",
        rows_per_commit / (median(&commit_us) / 1e6),
        "rows/s",
    );
    m.set("commit_p50_us", median(&commit_us), "us");
    m.set("checkpoint_p50_ms", median(&rec.checkpoint_ms), "ms");
    m.set("recover_s", median(&rec.recover_s), "s");
    m.set("bytes_per_row", rec.bytes_per_row, "B");
    m.set("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    m
}
