//! The pinned workload definitions.
//!
//! Pinned here: data sizes, index sets, operation mixes, transaction shape,
//! checkpoint cadence and the buffer-pool capacity *relative to the data
//! pages* the set-up produced.  Taken from the engine's defaults (so a change
//! to a default is measured as users get it): the replacement policy
//! (`BufferPoolConfig::default().policy`), the WAL group-commit settings
//! (`WalConfig::default()`) and every index class's clustering and split
//! parameters.

use spgist_catalog::{Datum, IndexSpec, KeyType};
use spgist_indexes::Rect;

use crate::gen::{Read, Rng, Tab, Write, WORLD};
use crate::model::Model;

/// The SP-GiST index classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    KdTree,
    PQuadtree,
    Pmr,
    Trie,
    Suffix,
}

impl Class {
    /// The indexes every table of that key type carries.
    pub fn for_table(tab: Tab) -> &'static [Class] {
        match tab {
            Tab::Pois | Tab::PoisStaging => &[Class::KdTree, Class::PQuadtree],
            Tab::Roads | Tab::RoadsStaging => &[Class::Pmr],
            Tab::Words => &[Class::Trie, Class::Suffix],
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::KdTree => "kdtree",
            Class::PQuadtree => "pquadtree",
            Class::Pmr => "pmr",
            Class::Trie => "trie",
            Class::Suffix => "suffix",
        }
    }

    pub fn spec(self) -> IndexSpec {
        match self {
            Class::KdTree => IndexSpec::KdTree,
            Class::PQuadtree => IndexSpec::PointQuadtree,
            Class::Pmr => IndexSpec::PmrQuadtree { world: world() },
            Class::Trie => IndexSpec::Trie,
            Class::Suffix => IndexSpec::SuffixTree,
        }
    }

    /// Whether one logical item is stored as several tree items.
    pub fn replicates(self) -> bool {
        matches!(self, Class::Pmr | Class::Suffix)
    }
}

/// The catalog name of `class`'s index on `tab`.
pub fn index_name(tab: Tab, class: Class) -> String {
    format!("{}_{}", tab.name(), class.name())
}

pub fn key_type(tab: Tab) -> KeyType {
    match tab {
        Tab::Pois | Tab::PoisStaging => KeyType::Point,
        Tab::Roads | Tab::RoadsStaging => KeyType::Segment,
        Tab::Words => KeyType::Varchar,
    }
}

/// What one round of the measured phase does; every round ends with a
/// checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `reads` spatial reads on `pois` / `roads`, then `txns` transactions
    /// on the staging tables (never read).
    GeoServe { reads: usize, txns: usize },
    /// `txns` transactions on `pois` / `roads`, with a read after every
    /// [`PROBE_EVERY`]-th commit.
    GeoIngest { txns: usize },
    /// `ops` string operations, every [`TEXT_WRITE_EVERY`]-th an
    /// auto-commit write.
    TextSearch { ops: usize },
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Each table with its bulk-loaded row count.
    pub tables: Vec<(Tab, usize)>,
    /// Buffer-pool capacity as a multiple of the data pages after set-up.
    pub pool_ratio: f64,
    pub mix: Mix,
    /// Rounds per `--seconds` of an untraced run.  The work is fixed, not
    /// the time: a faster engine finishes sooner and a slower one later,
    /// and both do the same operations on the same data.  Calibrated so the
    /// engine at the benchmark's first commit takes about `--seconds` on a
    /// 2-vCPU host.
    pub rounds_per_second: f64,
    /// Rounds run by the traced run (fixed, so its counts repeat exactly).
    pub trace_rounds: usize,
}

impl Spec {
    /// The tables the workload's writes go to.
    pub fn write_tables(&self) -> Vec<Tab> {
        match self.mix {
            Mix::GeoServe { .. } => vec![Tab::PoisStaging, Tab::RoadsStaging],
            Mix::GeoIngest { .. } => vec![Tab::Pois, Tab::Roads],
            Mix::TextSearch { .. } => vec![Tab::Words],
        }
    }
}

/// Statements per transaction.
pub const TXN_STATEMENTS: usize = 32;
/// Longest road segment.
pub const SEGMENT_MAX_LEN: f64 = 2.0;
/// Side of a point window (about 22 of 100k points).
pub const POINT_WINDOW: f64 = 1.5;
/// Side of a road window.
pub const ROAD_WINDOW: f64 = 2.0;
/// Share of deletes among the statements of a write.
pub const DELETE_SHARE: f64 = 0.15;
/// Share of points among geo inserts (the rest are road segments).
pub const POINT_INSERT_SHARE: f64 = 0.8;
/// Every this many text-search operations, one is an auto-commit write (5%).
pub const TEXT_WRITE_EVERY: usize = 20;
/// geo-ingest reads once per this many commits (a read-after-write probe).
pub const PROBE_EVERY: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Recoveries timed across an untraced run; `recover_s` is their median.
pub const RECOVERY_PROBES: usize = 16;
/// Every n-th read is checked against the oracle.
pub const CHECK_EVERY: u64 = 16;
/// Transactions (geo) or auto-commit writes (text) left after the last
/// checkpoint, so recovery replays a log.
pub const TAIL_TXNS: usize = 8;
pub const TAIL_WRITES: usize = 64;

pub fn world() -> Rect {
    Rect::new(0.0, 0.0, WORLD, WORLD)
}

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "geo-serve" => Spec {
            name: "geo-serve",
            tables: vec![
                (Tab::Pois, 100_000),
                (Tab::Roads, 25_000),
                (Tab::PoisStaging, 20_000),
                (Tab::RoadsStaging, 5_000),
            ],
            pool_ratio: 2.0,
            mix: Mix::GeoServe {
                reads: 4000,
                txns: 8,
            },
            rounds_per_second: 2.0,
            trace_rounds: 4,
        },
        "geo-ingest" => Spec {
            name: "geo-ingest",
            tables: vec![(Tab::Pois, 50_000), (Tab::Roads, 12_500)],
            pool_ratio: 2.0,
            mix: Mix::GeoIngest { txns: 16 },
            rounds_per_second: 1.8,
            trace_rounds: 8,
        },
        "text-search" => Spec {
            name: "text-search",
            tables: vec![(Tab::Words, 50_000)],
            pool_ratio: 0.25,
            mix: Mix::TextSearch { ops: 100 },
            rounds_per_second: 1.5,
            trace_rounds: 8,
        },
        _ => return None,
    })
}

/// The bulk-loaded rows of one table.
pub fn initial_rows(tab: Tab, rows: usize, seed: u64) -> Vec<Datum> {
    let mut rng = Rng::stream(seed, tab.name());
    (0..rows).map(|_| new_datum(tab, &mut rng)).collect()
}

fn new_datum(tab: Tab, rng: &mut Rng) -> Datum {
    match key_type(tab) {
        KeyType::Point => Datum::Point(rng.point()),
        KeyType::Segment => Datum::Segment(rng.segment(SEGMENT_MAX_LEN)),
        KeyType::Varchar => Datum::Text(rng.word()),
    }
}

/// The `nth` read of the geo mix: the query types take turns, so every
/// stretch of the run has the same mix.  `types` limits the rotation to its
/// first 3 (point queries only) or all 4 types.
pub fn geo_read(rng: &mut Rng, model: &Model, nth: usize, types: usize) -> Read {
    match nth % types {
        0 => match model.table(Tab::Pois).random_live(rng) {
            Some((_, Datum::Point(p))) => Read::PointEq(*p),
            _ => Read::PointEq(rng.point()),
        },
        1 => Read::PointWindow(rng.window(POINT_WINDOW)),
        2 => Read::PointKnn(rng.point()),
        _ => Read::SegWindow(rng.window(ROAD_WINDOW)),
    }
}

/// The `nth` read of the text mix, query types taking turns, built from
/// live words so most of them match something.
pub fn text_read(rng: &mut Rng, model: &Model, nth: usize) -> Read {
    let word = match model.table(Tab::Words).random_live(rng) {
        Some((_, Datum::Text(w))) => w.clone(),
        _ => rng.word(),
    };
    match nth % 5 {
        0 => Read::WordEq(word),
        1 => {
            let len = word.len().min(3 + rng.below(3));
            Read::WordPrefix(word[..len].to_string())
        }
        2 => {
            let mut pattern = word.into_bytes();
            for _ in 0..2 {
                let at = rng.below(pattern.len());
                pattern[at] = b'?';
            }
            Read::WordRegex(String::from_utf8(pattern).expect("ascii pattern"))
        }
        3 => {
            let len = word.len().min(3);
            let start = rng.below(word.len() - len + 1);
            Read::WordSubstring(word[start..start + len].to_string())
        }
        _ => Read::WordKnn(rng.word()),
    }
}

/// One write statement on `tabs`: an insert, or with [`DELETE_SHARE`] a
/// delete of a live row not already in `taken`.
pub fn write(rng: &mut Rng, model: &Model, tabs: &[Tab], taken: &mut Vec<(Tab, u64)>) -> Write {
    let tab = if tabs.len() == 1 || rng.chance(POINT_INSERT_SHARE) {
        tabs[0]
    } else {
        tabs[1]
    };
    if rng.chance(DELETE_SHARE) {
        for _ in 0..8 {
            if let Some((row, _)) = model.table(tab).random_live(rng) {
                if !taken.contains(&(tab, row)) {
                    taken.push((tab, row));
                    return Write::Delete(tab, row);
                }
            }
        }
    }
    Write::Insert(tab, new_datum(tab, rng))
}
