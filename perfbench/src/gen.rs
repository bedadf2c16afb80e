//! The seeded generator and the correctness oracle.
//!
//! Every record in a run is a pure function of `(seed, key index, tag)`, so
//! the model of a branch is just `key -> tag`: a `BTreeMap` per branch that
//! the generator updates as it issues writes. Results are checked by row
//! count plus an order-independent checksum (the wrapping sum of per-row
//! hashes), so a check costs one pass over the returned rows.

use std::collections::{BTreeMap, HashMap};

use decibel::common::record::Record;
use decibel::core::query::Predicate;

/// Data columns per record: 12 x u32 + 8-byte key + 1 flag byte = 57 bytes.
pub const COLS: usize = 12;
/// Bytes of one stored record version under [`COLS`] u32 columns.
pub const RECORD_BYTES: u64 = 57;
/// The two columns the selective query projects.
pub const SELECT_COLS: [usize; 2] = [0, 5];

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Generates keys and record versions for one seed.
#[derive(Clone, Copy)]
pub struct Gen {
    seed: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen { seed: mix(seed) }
    }

    /// The key of key-index `i`: ascending, sparse, seed-dependent. Every
    /// key in a run is `key(i)` for exactly one index, and writers draw
    /// indexes from disjoint ranges, so keys never collide.
    pub fn key(&self, i: u64) -> u64 {
        i * 4 + (mix(self.seed ^ i) & 3)
    }

    /// Version `tag` of the record stored under `key`.
    pub fn record(&self, key: u64, tag: u32) -> Record {
        let base = mix(self.seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((tag as u64) << 40));
        Record::new(
            key,
            (0..COLS as u64)
                .map(|c| mix(base.wrapping_add(c)) & 0xffff_ffff)
                .collect(),
        )
    }

    /// A lowerable predicate of `permille`/1000 selectivity on a column drawn
    /// from `draw` (fields are uniform over the u32 range). The selectivity
    /// does not depend on the seed, so every seed does the same amount of work.
    pub fn predicate(&self, draw: u64, permille: u64) -> Predicate {
        let col = 1 + (mix(self.seed ^ draw) % (COLS as u64 - 1)) as usize;
        Predicate::ColLt(col, (permille << 32) / 1000)
    }
}

/// Order-independent hash of one record as a scan returns it.
pub fn row_hash(r: &Record) -> u64 {
    let mut h = mix(r.key());
    for &f in r.fields() {
        h = h.wrapping_mul(0x0000_0100_0000_01b3).wrapping_add(f);
    }
    mix(h)
}

/// Row count plus the wrapping sum of row hashes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sum {
    pub count: u64,
    pub hash: u64,
}

impl Sum {
    pub fn add(&mut self, row: u64) {
        self.count += 1;
        self.hash = self.hash.wrapping_add(row);
    }

    fn remove(&mut self, row: u64) {
        self.count -= 1;
        self.hash = self.hash.wrapping_sub(row);
    }

    pub fn of<'a>(rows: impl IntoIterator<Item = &'a Record>) -> Sum {
        let mut sum = Sum::default();
        for r in rows {
            sum.add(row_hash(r));
        }
        sum
    }
}

/// How an annotated (multi-branch) row is hashed: the record plus the set of
/// branches it is live in, as a bit mask over raw branch ids (< 64).
pub fn annotated_hash(row: u64, mask: u64) -> u64 {
    mix(row ^ mix(mask))
}

/// The model of one branch head.
#[derive(Clone, Default)]
pub struct Branch {
    rows: BTreeMap<u64, u32>,
    /// Sum over full (unprojected, unfiltered) rows, kept incrementally.
    full: Sum,
}

impl Branch {
    /// Inserts or replaces `key`; returns the tag it replaced.
    pub fn put(&mut self, gen: &Gen, key: u64, tag: u32) -> Option<u32> {
        let old = self.rows.insert(key, tag);
        if let Some(old) = old {
            self.full.remove(row_hash(&gen.record(key, old)));
        }
        self.full.add(row_hash(&gen.record(key, tag)));
        old
    }

    pub fn tag(&self, key: u64) -> Option<u32> {
        self.rows.get(&key).copied()
    }

    /// What a full scan of the branch must return.
    pub fn full(&self) -> Sum {
        self.full
    }

    pub fn versions(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.rows.iter().map(|(k, t)| (*k, *t))
    }

    /// What `.select(cols).filter(pred).collect()` must return.
    pub fn selected(&self, gen: &Gen, pred: &Predicate, cols: &[usize]) -> Sum {
        let mut sum = Sum::default();
        for (key, tag) in self.versions() {
            let full = gen.record(key, tag);
            if pred.eval(&full) {
                let mut fields = vec![0; COLS];
                for &c in cols {
                    fields[c] = full.field(c);
                }
                sum.add(row_hash(&Record::new(key, fields)));
            }
        }
        sum
    }
}

/// What an annotated scan over `branches` (raw id, model) must return: one
/// row per distinct record version, annotated with the branches it is live in.
pub fn annotated(gen: &Gen, branches: &[(u32, &Branch)]) -> Sum {
    let mut masks: HashMap<(u64, u32), u64> = HashMap::new();
    for (id, branch) in branches {
        for version in branch.versions() {
            *masks.entry(version).or_default() |= 1 << id;
        }
    }
    let mut sum = Sum::default();
    for ((key, tag), mask) in masks {
        sum.add(annotated_hash(row_hash(&gen.record(key, tag)), mask));
    }
    sum
}

/// What `diff(left, right)` must return: versions live in only one side.
pub fn diff(gen: &Gen, left: &Branch, right: &Branch) -> (Sum, Sum) {
    let only = |a: &Branch, b: &Branch| {
        let mut sum = Sum::default();
        for (key, tag) in a.versions() {
            if b.tag(key) != Some(tag) {
                sum.add(row_hash(&gen.record(key, tag)));
            }
        }
        sum
    };
    (only(left, right), only(right, left))
}
