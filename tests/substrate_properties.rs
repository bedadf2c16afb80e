//! Property tests on the storage substrates: bitmap algebra, RLE and
//! commit-store codecs, heap files, and the version graph's LCA. (The git
//! baseline's LZSS/delta codecs are tested in `crates/gitlike`.)

use decibel::bitmap::{rle, Bitmap, CommitStore};
use decibel::common::env::std_env;
use decibel::common::ids::{BranchId, CommitId, RecordIdx};
use decibel::common::record::Record;
use decibel::common::schema::{ColumnType, Schema};
use decibel::pagestore::{BufferPool, HeapFile};
use decibel::vgraph::VersionGraph;
use proptest::prelude::*;
use std::sync::Arc;

fn bitmap_from(bits: &[bool]) -> Bitmap {
    let mut bm = Bitmap::zeros(bits.len() as u64);
    for (i, &b) in bits.iter().enumerate() {
        if b {
            bm.set(i as u64, true);
        }
    }
    bm
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// XOR-delta chains reconstruct any commit: the algebraic foundation
    /// of §3.2's commit stores.
    #[test]
    fn xor_chain_reconstructs(history in proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), 1..200), 1..12))
    {
        let bitmaps: Vec<Bitmap> = history.iter().map(|h| bitmap_from(h)).collect();
        // Forward delta chain.
        let mut deltas = Vec::new();
        let mut prev = Bitmap::new();
        for bm in &bitmaps {
            deltas.push(bm.xor(&prev));
            prev = bm.clone();
        }
        // Replaying deltas 0..=k yields bitmap k.
        let mut state = Bitmap::new();
        for (k, d) in deltas.iter().enumerate() {
            state.xor_assign(d);
            prop_assert_eq!(
                state.iter_ones().collect::<Vec<_>>(),
                bitmaps[k].iter_ones().collect::<Vec<_>>()
            );
        }
    }

    /// RLE encoding is lossless for arbitrary bit patterns.
    #[test]
    fn rle_roundtrip(bits in proptest::collection::vec(any::<bool>(), 0..2000)) {
        let bm = bitmap_from(&bits);
        let decoded = rle::decode(&rle::encode(&bm)).unwrap();
        prop_assert_eq!(decoded.len(), bm.len());
        prop_assert_eq!(
            decoded.iter_ones().collect::<Vec<_>>(),
            bm.iter_ones().collect::<Vec<_>>()
        );
    }

    /// Bitmap set algebra: De Morgan-ish identities used by diff/merge.
    #[test]
    fn bitmap_algebra(a in proptest::collection::vec(any::<bool>(), 1..300),
                      b in proptest::collection::vec(any::<bool>(), 1..300)) {
        let ba = bitmap_from(&a);
        let bb = bitmap_from(&b);
        // xor == (a\b) | (b\a)
        let xor = ba.xor(&bb);
        let sym = ba.and_not(&bb).or(&bb.and_not(&ba));
        prop_assert_eq!(xor.iter_ones().collect::<Vec<_>>(), sym.iter_ones().collect::<Vec<_>>());
        // and/or counts are consistent.
        prop_assert_eq!(
            ba.count_ones() + bb.count_ones(),
            ba.or(&bb).count_ones() + ba.and(&bb).count_ones()
        );
    }

    /// The in-place bitmap combinators match their allocating counterparts
    /// bit for bit (and in logical length) on ragged-length inputs, in both
    /// argument orders — the contract that lets scan planning build union
    /// bitmaps without per-branch allocations.
    #[test]
    fn in_place_bitmap_ops_match_allocating(
        a in proptest::collection::vec(any::<bool>(), 1..400),
        b in proptest::collection::vec(any::<bool>(), 1..400))
    {
        let ba = bitmap_from(&a);
        let bb = bitmap_from(&b);
        for (x, y) in [(&ba, &bb), (&bb, &ba)] {
            let mut v = x.clone();
            v.or_assign(y);
            prop_assert_eq!(&v, &x.or(y));
            prop_assert_eq!(v.len(), x.or(y).len());
            let mut v = x.clone();
            v.and_assign(y);
            prop_assert_eq!(&v, &x.and(y));
            let mut v = x.clone();
            v.and_not_assign(y);
            prop_assert_eq!(&v, &x.and_not(y));
            let mut v = x.clone();
            v.xor_assign(y);
            prop_assert_eq!(&v, &x.xor(y));
            // Scratch-buffer reuse: copy_from + assign == allocating op.
            let mut scratch = Bitmap::zeros(7);
            scratch.copy_from(x);
            scratch.and_not_assign(y);
            prop_assert_eq!(&scratch, &x.and_not(y));
        }
        // Word-chunk iteration observes exactly the set bits.
        let ones: Vec<u64> = ba
            .iter_words()
            .flat_map(|(base, w)| (0..64).filter(move |i| w >> i & 1 == 1).map(move |i| base + i))
            .collect();
        prop_assert_eq!(ones, ba.iter_ones().collect::<Vec<_>>());
    }

    /// Heap files return exactly what was appended, in order, across page
    /// boundaries, for any record count.
    #[test]
    fn heap_roundtrip(tags in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let dir = tempfile::tempdir().unwrap();
        let pool = Arc::new(BufferPool::new(256, 4)); // tiny pages, evictions
        let schema = Schema::new(2, ColumnType::U32);
        let heap = HeapFile::create(pool, dir.path().join("h"), schema).unwrap();
        for (i, &t) in tags.iter().enumerate() {
            heap.append(&Record::new(i as u64, vec![t, t ^ 1])).unwrap();
        }
        prop_assert_eq!(heap.len(), tags.len() as u64);
        for (i, &t) in tags.iter().enumerate() {
            let r = heap.get(RecordIdx(i as u64)).unwrap();
            prop_assert_eq!(r.key(), i as u64);
            prop_assert_eq!(r.field(0), t);
        }
        let scanned: Vec<u64> =
            heap.scan_all().map(|r| r.unwrap().1.field(0)).collect();
        prop_assert_eq!(scanned, tags);
    }

    /// Commit stores reconstruct every ordinal for arbitrary histories
    /// (including identical consecutive commits → empty deltas).
    #[test]
    fn commit_store_checkout(history in proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), 1..100), 1..20),
        dup_mask in proptest::collection::vec(any::<bool>(), 1..20))
    {
        let dir = tempfile::tempdir().unwrap();
        let mut store = CommitStore::create_in(std_env(), dir.path().join("c"), 4).unwrap();
        let mut committed = Vec::new();
        for (i, h) in history.iter().enumerate() {
            let bm = bitmap_from(h);
            store.append_commit(&bm).unwrap();
            committed.push(bm.clone());
            // Sometimes commit the identical bitmap again (empty delta).
            if *dup_mask.get(i).unwrap_or(&false) {
                store.append_commit(&bm).unwrap();
                committed.push(bm);
            }
        }
        for (ord, expect) in committed.iter().enumerate() {
            let got = store.checkout(ord as u64).unwrap();
            prop_assert_eq!(
                got.iter_ones().collect::<Vec<_>>(),
                expect.iter_ones().collect::<Vec<_>>(),
                "ordinal {}", ord
            );
        }
    }

    /// LCA is symmetric, reachable from both inputs, and idempotent on a
    /// randomly grown DAG.
    #[test]
    fn lca_properties(choices in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..40)) {
        let mut g = VersionGraph::init();
        let mut branches = vec![BranchId::MASTER];
        for (op, pick) in choices {
            match op % 3 {
                0 => {
                    let b = branches[pick as usize % branches.len()];
                    g.add_commit(b, &[]).unwrap();
                }
                1 => {
                    let from = g.head(branches[pick as usize % branches.len()]).unwrap();
                    let id = g.create_branch(&format!("b{}", branches.len()), from).unwrap();
                    branches.push(id);
                }
                _ => {
                    // Merge commit between two branch heads.
                    let a = branches[pick as usize % branches.len()];
                    let b = branches[(pick as usize + 1) % branches.len()];
                    if a != b {
                        let other = g.head(b).unwrap();
                        g.add_commit(a, &[other]).unwrap();
                    }
                }
            }
        }
        let n = g.num_commits();
        for i in (0..n).step_by(3) {
            for j in (0..n).step_by(4) {
                let a = CommitId(i);
                let b = CommitId(j);
                let l = g.lca(a, b).unwrap();
                prop_assert_eq!(l, g.lca(b, a).unwrap(), "symmetry");
                prop_assert!(g.ancestors(a).contains(&l), "reachable from a");
                prop_assert!(g.ancestors(b).contains(&l), "reachable from b");
                prop_assert_eq!(g.lca(l, a).unwrap(), l, "idempotent");
            }
        }
    }
}
