//! The per-branch primary-key index, shared copy-on-write between branches.
//!
//! The paper keeps, per branch, an index "indicating the most recent
//! version of each primary key" (§3.2). A fork must hand the child the
//! parent's index, and a flat hash map makes that a full copy: at 200k rows
//! the copy, not the bitmap memcpy the paper describes, decided fork cost.
//!
//! [`PkIndex`] splits the map into buckets keyed by high bits of the key's
//! hash, each bucket an `Arc`-shared hash map. [`Clone`] bumps one
//! reference count per bucket and copies no entry; a write unshares the one
//! bucket it touches ([`Arc::get_mut`], else copy) and reads go straight
//! through. A branch that forks and writes ten keys therefore owns at most
//! ten small buckets; everything else stays the parent's memory.
//!
//! The bucket count is a function of the entry count alone — the power of
//! two at or above `sqrt(len)`, which balances what a fork pays (one count
//! per bucket) against what the first write after it pays (one bucket's
//! entries) — and is re-derived whenever growth changes it, the amortized
//! regrowth any hash table does. There is nothing to configure.

use std::hash::BuildHasher;
use std::sync::Arc;

use decibel_bitmap::Bitmap;
use decibel_common::error::Result;
use decibel_common::hash::{FxBuildHasher, FxHashMap};
use decibel_common::ids::RecordIdx;
use decibel_obs::{family, Counter, Registry};
use decibel_pagestore::HeapFile;

/// The bucket index is the hash bits just below this one. The top seven
/// are the tag `std`'s hash map matches candidates on: a bucket chosen by
/// them would hold one tag value only, and every probe in it would compare
/// every key of its group.
const BUCKET_BITS_END: u32 = 64 - 7;

/// `log2` of the bucket count for `len` entries: the smallest power of two
/// whose square covers `len`.
fn bits_for(len: usize) -> u32 {
    len.max(1).next_power_of_two().trailing_zeros().div_ceil(2)
}

fn bucket_of(key: u64, bits: u32) -> usize {
    let hash = FxBuildHasher::default().hash_one(key);
    (hash >> (BUCKET_BITS_END - bits)) as usize & ((1 << bits) - 1)
}

/// `1 << bits` unshared buckets sized for `len` entries between them.
fn empty_buckets<V>(bits: u32, len: usize) -> Vec<FxHashMap<u64, V>> {
    let n = 1usize << bits;
    (0..n)
        .map(|_| FxHashMap::with_capacity_and_hasher(len / n, FxBuildHasher::default()))
        .collect()
}

/// Binds `commit/pk_cow_entries`, the counter every index of one engine
/// reports its bucket copies to.
pub(crate) fn cow_entries_counter(metrics: &Registry) -> Counter {
    metrics.counter(family::COMMIT, "pk_cow_entries")
}

/// A `u64 → V` map whose [`Clone`] is O(buckets), not O(entries).
#[derive(Clone)]
pub(crate) struct PkIndex<V> {
    /// `1 << bits` buckets; `bits >= bits_for(len)` always.
    buckets: Vec<Arc<FxHashMap<u64, V>>>,
    bits: u32,
    len: usize,
    /// `commit/pk_cow_entries`: entries copied to unshare a bucket.
    cow_entries: Counter,
}

impl<V: Copy + PartialEq> PkIndex<V> {
    /// An empty index reporting bucket copies to `cow_entries`.
    pub fn new(cow_entries: Counter) -> Self {
        Self::with_capacity(0, cow_entries)
    }

    /// An empty index with the bucket count of a `len`-entry map, for
    /// rebuilds that know how many rows they are about to insert.
    pub fn with_capacity(len: usize, cow_entries: Counter) -> Self {
        let bits = bits_for(len);
        PkIndex {
            buckets: empty_buckets(bits, len).into_iter().map(Arc::new).collect(),
            bits,
            len: 0,
            cow_entries,
        }
    }

    /// Exclusive access to bucket `i`, copying it first if another handle
    /// still shares it.
    fn bucket_mut(&mut self, i: usize) -> &mut FxHashMap<u64, V> {
        let slot = &mut self.buckets[i];
        // A count of one cannot rise under `&mut self`: only a holder can
        // clone, and no weak reference is ever made.
        if Arc::strong_count(slot) > 1 {
            self.cow_entries.add(slot.len() as u64);
            *slot = Arc::new(FxHashMap::clone(slot));
        }
        Arc::get_mut(slot).expect("bucket is unshared")
    }

    /// The value stored for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        self.buckets[bucket_of(key, self.bits)].get(&key).copied()
    }

    /// Whether `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.buckets[bucket_of(key, self.bits)].contains_key(&key)
    }

    /// Every entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|(k, v)| (*k, *v)))
    }

    /// Stores `value` for `key`, returning the value it replaces.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let i = bucket_of(key, self.bits);
        let old = self.bucket_mut(i).insert(key, value);
        if old.is_none() {
            self.len += 1;
            if bits_for(self.len) > self.bits {
                self.rebucket();
            }
        }
        old
    }

    /// Removes `key`'s entry. A miss leaves a shared bucket shared.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = bucket_of(key, self.bits);
        if !self.buckets[i].contains_key(&key) {
            return None;
        }
        self.len -= 1;
        self.bucket_mut(i).remove(&key)
    }

    /// Redistributes every entry over the bucket count the current size
    /// calls for; runs each time the map has grown fourfold.
    fn rebucket(&mut self) {
        let bits = bits_for(self.len);
        let mut fresh = empty_buckets(bits, self.len);
        for (key, value) in self.iter() {
            fresh[bucket_of(key, bits)].insert(key, value);
        }
        self.buckets = fresh.into_iter().map(Arc::new).collect();
        self.bits = bits;
    }

    /// Indexes the set rows of `rows` in `heap`: each row's key maps to
    /// `loc(row)`. The rebuild primitive of reopen and of a fork from a
    /// historical commit (the index is derived state, never persisted).
    pub fn insert_rows(
        &mut self,
        heap: &HeapFile,
        rows: &Bitmap,
        loc: impl Fn(RecordIdx) -> V,
    ) -> Result<()> {
        let mut cursor = heap.pinned_cursor();
        for row in rows.iter_ones() {
            let (key, _) = cursor.peek_key(row)?;
            self.insert(key, loc(RecordIdx(row)));
        }
        Ok(())
    }

    /// Drops the entries that point at the set rows of `rows` in `heap`.
    /// A row's key loses its entry only while that entry is still
    /// `loc(row)`, so a key whose live copy has moved elsewhere keeps it.
    fn remove_rows(
        &mut self,
        heap: &HeapFile,
        rows: &Bitmap,
        loc: impl Fn(RecordIdx) -> V,
    ) -> Result<()> {
        let mut cursor = heap.pinned_cursor();
        for row in rows.iter_ones() {
            let (key, _) = cursor.peek_key(row)?;
            if self.get(key) == Some(loc(RecordIdx(row))) {
                self.remove(key);
            }
        }
        Ok(())
    }

    /// Rebuilds one branch's index at reopen from its liveness columns,
    /// one [`HeapRows`] per heap file the branch or its parent has rows in.
    ///
    /// `parent` is the already rebuilt index of the branch this one's fork
    /// commit was made on. The branch starts from a clone of it and applies
    /// only the rows where the two branches' columns differ — parent-only
    /// rows out, then child-only rows in — so the indexes share after a
    /// reopen what they shared before it, and a row both hold is not read.
    /// The version graph does not record how far the parent has moved on
    /// since the fork (a fork from a historical commit looks like any
    /// other), so the choice is made on the work itself: when the differing
    /// rows outnumber the branch's own, indexing the branch from scratch
    /// reads fewer rows, and that is what happens.
    pub fn rebuilt<L: Fn(RecordIdx) -> V>(
        parent: Option<&Self>,
        parts: &[HeapRows<'_, L>],
        cow_entries: &Counter,
    ) -> Result<Self> {
        let own_rows: u64 = parts.iter().map(|p| p.own.count_ones()).sum();
        if let Some(parent) = parent {
            let deltas: Vec<(Bitmap, Bitmap)> = parts
                .iter()
                .map(|p| (p.base.and_not(p.own), p.own.and_not(p.base)))
                .collect();
            let differing: u64 = deltas
                .iter()
                .map(|(removed, added)| removed.count_ones() + added.count_ones())
                .sum();
            if differing < own_rows {
                let mut keys = parent.clone();
                for (p, (removed, _)) in parts.iter().zip(&deltas) {
                    keys.remove_rows(p.heap, removed, &p.loc)?;
                }
                for (p, (_, added)) in parts.iter().zip(&deltas) {
                    keys.insert_rows(p.heap, added, &p.loc)?;
                }
                return Ok(keys);
            }
        }
        let mut keys = Self::with_capacity(own_rows as usize, cow_entries.clone());
        for p in parts {
            keys.insert_rows(p.heap, p.own, &p.loc)?;
        }
        Ok(keys)
    }
}

/// One heap file's part of a branch being rebuilt by [`PkIndex::rebuilt`].
pub(crate) struct HeapRows<'a, L> {
    pub heap: &'a HeapFile,
    /// The branch's live rows in `heap`.
    pub own: &'a Bitmap,
    /// Its parent's live rows in `heap` (empty without a parent).
    pub base: &'a Bitmap,
    /// The index value for a row of `heap`.
    pub loc: L,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    impl<V> PkIndex<V> {
        fn len(&self) -> usize {
            self.len
        }

        fn buckets(&self) -> usize {
            self.buckets.len()
        }

        /// Buckets some other handle also holds.
        fn shared_buckets(&self) -> usize {
            self.buckets
                .iter()
                .filter(|b| Arc::strong_count(b) > 1)
                .count()
        }
    }

    fn filled(n: u64) -> PkIndex<u64> {
        let mut pk = PkIndex::new(Counter::detached());
        for k in 0..n {
            // Spread keys: the engines' keys are arbitrary u64s.
            pk.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
        }
        pk
    }

    #[test]
    fn bucket_count_follows_size_whether_grown_or_presized() {
        for n in [0u64, 1, 4, 5, 1_000, 20_000, 200_000] {
            let grown = filled(n);
            let sized = PkIndex::<u64>::with_capacity(n as usize, Counter::detached());
            assert_eq!(grown.buckets(), sized.buckets(), "{n} entries");
            let b = grown.buckets() as u64;
            assert!(
                b * b >= n && (b == 1 || b * b < 4 * n),
                "{b} buckets for {n}"
            );
        }
        assert_eq!(filled(200_000).buckets(), 512);
    }

    /// Fork is flat in table size: a clone shares every bucket, copies no
    /// entry, and the first write after it unshares exactly one bucket.
    #[test]
    fn clone_shares_everything_and_a_write_unshares_one_bucket() {
        for n in [1_000u64, 200_000] {
            let parent = filled(n);
            assert_eq!(parent.shared_buckets(), 0);
            let mut child = parent.clone();
            assert_eq!(child.shared_buckets(), child.buckets(), "{n} entries");
            assert_eq!(parent.shared_buckets(), parent.buckets());
            assert_eq!(parent.cow_entries.value(), 0, "a clone copies no entry");

            child.insert(7, 7);
            assert_eq!(child.shared_buckets(), child.buckets() - 1);
            assert_eq!(parent.shared_buckets(), parent.buckets() - 1);
            let copied = parent.cow_entries.value();
            assert!(copied > 0 && copied < 8 * n / parent.buckets() as u64);
            assert_eq!(parent.get(7), None);
            assert_eq!(parent.len() as u64, n);
            assert_eq!(child.len() as u64, n + 1);

            // A miss is not a write.
            child.remove(8);
            assert_eq!(child.shared_buckets(), child.buckets() - 1);
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(usize, u64, u64),
        Remove(usize, u64),
        Clone(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        // Few distinct keys so inserts overwrite and removes hit.
        prop_oneof![
            6 => (0usize..8, 0u64..400, any::<u64>()).prop_map(|(h, k, v)| Op::Insert(h, k, v)),
            3 => (0usize..8, 0u64..400).prop_map(|(h, k)| Op::Remove(h, k)),
            1 => (0usize..8).prop_map(Op::Clone),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// Any interleaving of insert/remove/clone over several handles
        /// matches one `HashMap` per handle: writes through one handle are
        /// invisible through every other, `len` and `iter` included, across
        /// the rebuilds growth triggers.
        #[test]
        fn handles_match_a_hashmap_per_handle(ops in proptest::collection::vec(op(), 1..600)) {
            let mut handles = vec![PkIndex::<u64>::new(Counter::detached())];
            let mut models = vec![HashMap::<u64, u64>::new()];
            for op in ops {
                match op {
                    Op::Insert(h, k, v) => {
                        let h = h % handles.len();
                        prop_assert_eq!(handles[h].insert(k, v), models[h].insert(k, v));
                    }
                    Op::Remove(h, k) => {
                        let h = h % handles.len();
                        prop_assert_eq!(handles[h].remove(k), models[h].remove(&k));
                    }
                    Op::Clone(h) => {
                        let h = h % handles.len();
                        handles.push(handles[h].clone());
                        models.push(models[h].clone());
                    }
                }
                for (pk, model) in handles.iter().zip(&models) {
                    prop_assert_eq!(pk.len(), model.len());
                }
            }
            for (pk, model) in handles.iter().zip(&models) {
                let seen: HashMap<u64, u64> = pk.iter().collect();
                prop_assert_eq!(&seen, model);
                for k in 0..400 {
                    prop_assert_eq!(pk.get(k), model.get(&k).copied());
                    prop_assert_eq!(pk.contains_key(k), model.contains_key(&k));
                }
            }
        }
    }
}
