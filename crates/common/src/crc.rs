//! CRC-32 (IEEE 802.3) — the one checksum every on-disk format here uses:
//! WAL entries, checkpoint files, heap pages, and commit-store entries.
//!
//! [`crc32`] has two bodies, chosen per call:
//!
//! - **Carry-less multiply** (x86_64 with `pclmulqdq` and `sse4.1`,
//!   detected at run time, inputs of at least 128 bytes):
//!   four 128-bit lanes fold 64 bytes per iteration, then a Barrett
//!   reduction yields the 32-bit remainder. This is what verifies every
//!   heap page a buffer-pool miss reads, so it sets the cost of a cold
//!   read: ~23 GB/s, ~11 µs for a 256 KiB page.
//! - **Slicing-by-8 tables** (every other CPU, and inputs shorter than
//!   128 bytes — WAL entries of a few records, short commit-store
//!   entries, the kernel's own tail): eight 256-entry tables built at
//!   compile time fold eight bytes per iteration with no data-dependent
//!   branches, ~1.5 GB/s (~180 µs per 256 KiB page). It stays because it
//!   is the only body on other CPUs, it beats the kernel's set-up on short
//!   inputs, and it is the reference the kernel is tested against.
//!
//! (Throughputs measured on a 2-vCPU x86_64 VM with AVX-512, release
//! build, a 256 KiB buffer already in cache — as a page is right after the
//! pool reads it.) Both bodies compute the same function bit for bit, so
//! which one ran never shows in any stored checksum.

const POLY: u32 = 0xEDB8_8320;

/// Shortest input handed to the carry-less-multiply body: its fold loop
/// needs four 16-byte lanes to start from and one 64-byte block to fold.
const CLMUL_MIN_LEN: usize = 128;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN_LEN && clmul::available() {
        // SAFETY: `available` just confirmed the CPU has every feature
        // `clmul::update` is compiled for.
        return !unsafe { clmul::update(!0, bytes) };
    }
    !update_table(!0, bytes)
}

/// Advances the raw (pre-inversion) CRC register `crc` over `bytes` with
/// the slicing-by-8 tables.
fn update_table(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The PCLMULQDQ fold of Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in its
/// bit-reflected form. The constants are the Linux kernel's
/// `crc32-pclmul` ones: each `x^k mod P(x)` below is stored bit-reflected
/// and shifted left by one, as the reflected fold needs.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// x^(4·128+32) mod P and x^(4·128−32) mod P: fold one lane 512 bits.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) mod P and x^(128−32) mod P: fold one lane 128 bits.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: fold 96 bits to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P(x) and the Barrett constant μ = ⌊x^64 / P(x)⌋,
    /// both reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const U_PRIME: i64 = 0x1_F701_1641;

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the raw CRC register `crc` over `bytes`, which must be at
    /// least `CLMUL_MIN_LEN` long.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(crc: u32, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= super::CLMUL_MIN_LEN);
        let (head, rest) = bytes.split_at(64);
        let mut x = [
            load(&head[..16]),
            load(&head[16..32]),
            load(&head[32..48]),
            load(&head[48..]),
        ];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));

        // Four independent lanes, each folded 512 bits forward per block,
        // keep the multiplier's pipeline full.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (lane, word) in x.iter_mut().zip(block.chunks_exact(16)) {
                *lane = fold(*lane, load(word), k1k2);
            }
        }

        // Collapse the lanes into one, then fold the remaining whole
        // 16-byte words into it.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        let mut words = blocks.remainder().chunks_exact(16);
        for word in &mut words {
            acc = fold(acc, load(word), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );

        // Barrett reduction 64 → 32 bits: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the reflected remainder is the upper
        // half of R ⊕ T2.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32;

        super::update_table(crc, words.remainder())
    }

    /// `acc` carried 128 bits forward (the distance `keys` encodes) and
    /// added to `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(word: &[u8]) -> __m128i {
        assert_eq!(word.len(), 16);
        // SAFETY: `word` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(word.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference bitwise implementation both bodies must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    fn crc32_table(bytes: &[u8]) -> u32 {
        !update_table(!0, bytes)
    }

    /// Non-constant contents with no short period.
    fn data(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vector() {
        // The canonical IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_table(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn table_body_matches_bitwise_at_every_length() {
        // Covers the fallback even where `crc32` takes the fast path.
        let data = data(1024);
        for len in 0..=data.len() {
            let want = crc32_bitwise(&data[..len]);
            assert_eq!(crc32_table(&data[..len]), want, "len={len}");
        }
    }

    #[test]
    fn matches_table_body_at_every_length() {
        // Both sides of CLMUL_MIN_LEN, every remainder of the 64-byte
        // block loop and of the 16-byte word loop.
        let data = data(1024);
        for len in 0..=data.len() {
            let got = crc32(&data[..len]);
            assert_eq!(got, crc32_table(&data[..len]), "len={len}");
            assert_eq!(got, crc32_bitwise(&data[..len]), "len={len}");
        }
    }

    #[test]
    fn matches_table_body_on_page_sizes_and_unaligned_starts() {
        const PAGE: usize = 256 * 1024;
        let data = data(PAGE + 16);
        let lens = [
            CLMUL_MIN_LEN - 1,
            CLMUL_MIN_LEN,
            CLMUL_MIN_LEN + 1,
            PAGE - 4, // a heap page's body: everything but its CRC trailer
            PAGE,
        ];
        for offset in 0..16 {
            for len in lens {
                let bytes = &data[offset..offset + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_table(bytes),
                    "offset={offset} len={len}"
                );
            }
        }
        assert_eq!(crc32(&data[..PAGE]), crc32_bitwise(&data[..PAGE]));
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = crc32(b"decibel");
        let mut flipped = *b"decibel";
        flipped[3] ^= 0x10;
        assert_ne!(crc32(&flipped), base);
        // And on the fast path: every bit of a long buffer matters.
        let page = data(4096);
        let base = crc32(&page);
        for bit in (0..page.len() * 8).step_by(61) {
            let mut flipped = page.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&flipped), base, "bit={bit}");
        }
    }
}
