//! Seeded input generation: the data sets and the operation streams.
//!
//! Everything the engine sees is produced here from the `--seed` argument;
//! the engine itself never sees the seed.

use spgist_catalog::{Datum, Predicate, Query};
use spgist_indexes::{Point, Rect, Segment};

/// Side of the square world every spatial key lives in.
pub const WORLD: f64 = 100.0;
/// Neighbours asked for by every k-NN query.
pub const KNN_K: usize = 16;

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of `seed`, independent of the others.
    pub fn stream(seed: u64, name: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn point(&mut self) -> Point {
        Point::new(self.unit() * WORLD, self.unit() * WORLD)
    }

    /// A segment starting uniformly in the world, length in `(0, max_len]`.
    pub fn segment(&mut self, max_len: f64) -> Segment {
        let a = self.point();
        let angle = self.unit() * std::f64::consts::TAU;
        let len = (self.unit() * max_len).max(1e-3);
        let b = Point::new(
            (a.x + angle.cos() * len).clamp(0.0, WORLD),
            (a.y + angle.sin() * len).clamp(0.0, WORLD),
        );
        Segment::new(a, b)
    }

    /// A word of 1 to 15 letters `a..=z` (the paper's string data).
    pub fn word(&mut self) -> String {
        let len = 1 + self.below(15);
        (0..len)
            .map(|_| char::from(b'a' + self.below(26) as u8))
            .collect()
    }

    /// A square window of side `side` inside the world.
    pub fn window(&mut self, side: f64) -> Rect {
        let x = self.unit() * (WORLD - side);
        let y = self.unit() * (WORLD - side);
        Rect::new(x, y, x + side, y + side)
    }
}

/// The tables the workloads use.  The staging tables take geo-serve's
/// writes and are never read, so serving reads stay read-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tab {
    Pois,
    Roads,
    Words,
    PoisStaging,
    RoadsStaging,
}

impl Tab {
    pub fn name(self) -> &'static str {
        match self {
            Tab::Pois => "pois",
            Tab::Roads => "roads",
            Tab::Words => "words",
            Tab::PoisStaging => "pois_staging",
            Tab::RoadsStaging => "roads_staging",
        }
    }
}

/// The latency class a read belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    Lookup,
    Range,
    Knn,
}

/// One read query of a workload mix.
#[derive(Debug, Clone)]
pub enum Read {
    PointEq(Point),
    PointWindow(Rect),
    PointKnn(Point),
    SegWindow(Rect),
    WordEq(String),
    WordPrefix(String),
    WordRegex(String),
    WordSubstring(String),
    WordKnn(String),
}

impl Read {
    pub fn table(&self) -> Tab {
        match self {
            Read::PointEq(_) | Read::PointWindow(_) | Read::PointKnn(_) => Tab::Pois,
            Read::SegWindow(_) => Tab::Roads,
            _ => Tab::Words,
        }
    }

    pub fn kind(&self) -> ReadKind {
        match self {
            Read::PointEq(_) | Read::WordEq(_) => ReadKind::Lookup,
            Read::PointKnn(_) | Read::WordKnn(_) => ReadKind::Knn,
            _ => ReadKind::Range,
        }
    }

    /// Short name used in the per-query-type breakdown.
    pub fn label(&self) -> &'static str {
        match self {
            Read::PointEq(_) => "point_eq",
            Read::PointWindow(_) => "point_window",
            Read::PointKnn(_) => "point_knn",
            Read::SegWindow(_) => "seg_window",
            Read::WordEq(_) => "word_eq",
            Read::WordPrefix(_) => "word_prefix",
            Read::WordRegex(_) => "word_regex",
            Read::WordSubstring(_) => "word_substring",
            Read::WordKnn(_) => "word_knn",
        }
    }

    /// The query as a user of the public API writes it.
    pub fn query(&self) -> Query {
        match self {
            Read::PointEq(p) => Predicate::point_equals(*p).into(),
            Read::PointWindow(r) => Predicate::point_in_rect(*r).into(),
            Read::PointKnn(p) => Predicate::point_nearest(*p).limit(KNN_K),
            Read::SegWindow(r) => Predicate::segment_in_rect(*r).into(),
            Read::WordEq(w) => Predicate::str_equals(w).into(),
            Read::WordPrefix(w) => Predicate::str_prefix(w).into(),
            Read::WordRegex(w) => Predicate::str_regex(w).into(),
            Read::WordSubstring(w) => Predicate::str_substring(w).into(),
            Read::WordKnn(w) => Predicate::str_nearest(w).limit(KNN_K),
        }
    }
}

/// One DML statement.
#[derive(Debug, Clone)]
pub enum Write {
    Insert(Tab, Datum),
    Delete(Tab, u64),
}
