//! Property tests on the git baseline's LZSS and binary-delta codecs.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// LZSS and binary deltas survive arbitrary byte strings.
    #[test]
    fn gitlike_codecs_roundtrip(base in proptest::collection::vec(any::<u8>(), 0..2000),
                                patch in proptest::collection::vec(any::<u8>(), 0..500)) {
        use gitlike::{compress, delta};
        prop_assert_eq!(compress::decompress(&compress::compress(&base)).unwrap(), base.clone());
        // Target = base with the patch spliced into the middle.
        let mid = base.len() / 2;
        let mut target = base[..mid].to_vec();
        target.extend_from_slice(&patch);
        target.extend_from_slice(&base[mid..]);
        let d = delta::encode(&base, &target);
        prop_assert_eq!(delta::apply(&base, &d).unwrap(), target);
    }
}
