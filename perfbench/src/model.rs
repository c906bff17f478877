//! The benchmark's own model of every table's live rows, and the
//! brute-force oracle that checks the engine's answers against it.

use std::collections::BTreeMap;

use spgist_catalog::Datum;
use spgist_indexes::{Point, Rect, Segment};

use crate::gen::{Read, Rng, Tab, KNN_K};

/// The rows of one table the engine has acknowledged, by row id.
#[derive(Debug, Default)]
pub struct TableModel {
    rows: Vec<Option<Datum>>,
    live: Vec<u64>,
    /// Position of each live row in `live` (`usize::MAX` when dead).
    pos: Vec<usize>,
}

impl TableModel {
    /// Records an acknowledged insert; false when `row` is already live.
    pub fn insert(&mut self, row: u64, datum: Datum) -> bool {
        let i = row as usize;
        if self.rows.len() <= i {
            self.rows.resize(i + 1, None);
            self.pos.resize(i + 1, usize::MAX);
        }
        if self.rows[i].is_some() {
            return false;
        }
        self.rows[i] = Some(datum);
        self.pos[i] = self.live.len();
        self.live.push(row);
        true
    }

    pub fn delete(&mut self, row: u64) -> Option<Datum> {
        let i = row as usize;
        let datum = self.rows.get_mut(i)?.take()?;
        let at = self.pos[i];
        self.live.swap_remove(at);
        if let Some(&moved) = self.live.get(at) {
            self.pos[moved as usize] = at;
        }
        self.pos[i] = usize::MAX;
        Some(datum)
    }

    pub fn get(&self, row: u64) -> Option<&Datum> {
        self.rows.get(row as usize).and_then(Option::as_ref)
    }

    /// Every row id ever acknowledged, live or deleted.
    pub fn row_ids(&self) -> u64 {
        self.rows.len() as u64
    }

    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    pub fn random_live(&self, rng: &mut Rng) -> Option<(u64, &Datum)> {
        if self.live.is_empty() {
            return None;
        }
        let row = self.live[rng.below(self.live.len())];
        self.get(row).map(|d| (row, d))
    }

    fn live_rows(&self) -> impl Iterator<Item = (u64, &Datum)> {
        self.live
            .iter()
            .map(move |&r| (r, self.get(r).expect("live row")))
    }
}

/// All tables of one workload.
#[derive(Debug, Default)]
pub struct Model {
    pub tables: BTreeMap<Tab, TableModel>,
}

impl Model {
    pub fn table(&self, tab: Tab) -> &TableModel {
        self.tables.get(&tab).expect("table is modelled")
    }

    pub fn table_mut(&mut self, tab: Tab) -> &mut TableModel {
        self.tables.entry(tab).or_default()
    }

    pub fn live_rows(&self) -> u64 {
        self.tables.values().map(|t| t.live_count() as u64).sum()
    }

    /// Checks one query's answer against a brute-force scan of the model:
    /// exact row-id sets for predicate queries, the distance multiset for
    /// k-NN.  Every returned key must also be the row's modelled key.
    pub fn check(&self, read: &Read, got: &[(u64, Datum)]) -> Result<(), String> {
        let table = self.table(read.table());
        for (row, datum) in got {
            match table.get(*row) {
                Some(d) if d == datum => {}
                Some(_) => {
                    return Err(format!(
                        "{}: row {row} came back with a wrong key",
                        read.label()
                    ))
                }
                None => return Err(format!("{}: row {row} is not live", read.label())),
            }
        }
        if let Some(dist) = knn_distance(read) {
            let mut want: Vec<f64> = table.live_rows().map(|(_, d)| dist(d)).collect();
            if want.len() > KNN_K {
                want.select_nth_unstable_by(KNN_K, f64::total_cmp);
                want.truncate(KNN_K);
            }
            want.sort_by(f64::total_cmp);
            let mut have: Vec<f64> = got.iter().map(|(_, d)| dist(d)).collect();
            have.sort_by(f64::total_cmp);
            let same = have.len() == want.len()
                && have
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| (a - b).abs() <= 1e-9 * b.max(1.0));
            return if same {
                Ok(())
            } else {
                Err(format!(
                    "{}: distances {have:?}, expected {want:?}",
                    read.label()
                ))
            };
        }
        let mut want: Vec<u64> = table
            .live_rows()
            .filter(|(_, d)| matches(read, d))
            .map(|(r, _)| r)
            .collect();
        want.sort_unstable();
        let mut have: Vec<u64> = got.iter().map(|(r, _)| *r).collect();
        have.sort_unstable();
        if have == want {
            Ok(())
        } else {
            Err(format!(
                "{}: {} rows returned, {} expected",
                read.label(),
                have.len(),
                want.len()
            ))
        }
    }
}

type Distance<'a> = Box<dyn Fn(&Datum) -> f64 + 'a>;

/// The distance function of a k-NN read, `None` for every other read.
fn knn_distance(read: &Read) -> Option<Distance<'_>> {
    match read {
        Read::PointKnn(anchor) => Some(Box::new(move |d| match d {
            Datum::Point(p) => ((p.x - anchor.x).powi(2) + (p.y - anchor.y).powi(2)).sqrt(),
            _ => f64::INFINITY,
        })),
        Read::WordKnn(word) => Some(Box::new(move |d| match d {
            Datum::Text(w) => hamming(word, w),
            _ => f64::INFINITY,
        })),
        _ => None,
    }
}

fn matches(read: &Read, datum: &Datum) -> bool {
    match (read, datum) {
        (Read::PointEq(q), Datum::Point(p)) => p == q,
        (Read::PointWindow(r), Datum::Point(p)) => in_rect(r, p),
        (Read::SegWindow(r), Datum::Segment(s)) => segment_hits(s, r),
        (Read::WordEq(q), Datum::Text(w)) => w == q,
        (Read::WordPrefix(q), Datum::Text(w)) => w.starts_with(q.as_str()),
        (Read::WordRegex(q), Datum::Text(w)) => {
            q.len() == w.len() && q.bytes().zip(w.bytes()).all(|(a, b)| a == b'?' || a == b)
        }
        (Read::WordSubstring(q), Datum::Text(w)) => w.contains(q.as_str()),
        _ => false,
    }
}

fn in_rect(r: &Rect, p: &Point) -> bool {
    p.x >= r.min_x && p.x <= r.max_x && p.y >= r.min_y && p.y <= r.max_y
}

/// Whether the closed segment meets the closed rectangle (parametric
/// clipping of the segment against the four half-planes).
fn segment_hits(s: &Segment, r: &Rect) -> bool {
    let (dx, dy) = (s.b.x - s.a.x, s.b.y - s.a.y);
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for (p, q) in [
        (-dx, s.a.x - r.min_x),
        (dx, r.max_x - s.a.x),
        (-dy, s.a.y - r.min_y),
        (dy, r.max_y - s.a.y),
    ] {
        if p == 0.0 {
            if q < 0.0 {
                return false;
            }
            continue;
        }
        let t = q / p;
        if p < 0.0 {
            if t > hi {
                return false;
            }
            lo = lo.max(t);
        } else {
            if t < lo {
                return false;
            }
            hi = hi.min(t);
        }
    }
    lo <= hi
}

/// Mismatched positions plus the length difference.
fn hamming(a: &str, b: &str) -> f64 {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let common = a.len().min(b.len());
    let mismatched = a[..common]
        .iter()
        .zip(&b[..common])
        .filter(|(x, y)| x != y)
        .count();
    (mismatched + a.len().max(b.len()) - common) as f64
}
