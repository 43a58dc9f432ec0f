//! The crate's only unsafe code, behind two safe functions: the writeback
//! hint (one foreign call) and the carry-less-multiply CRC kernel (one
//! hardware intrinsic). Other targets compile both to safe fallbacks.

use crate::frame::crc32_tables;
use std::fs::File;

/// Asks the kernel to start writing back `len` bytes of `file` at `at`,
/// without waiting: `sync_file_range(SYNC_FILE_RANGE_WRITE)`. A hint only.
/// It passes no `WAIT_*` flag, so an error in the writeback it starts is
/// still reported by the next fsync of the file; an error of the call
/// itself is ignored. A no-op for an empty range, and off Linux.
pub(crate) fn start_writeback(file: &File, at: u64, len: u64) {
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        use std::os::raw::{c_int, c_uint};
        extern "C" {
            fn sync_file_range(fd: c_int, offset: i64, nbytes: i64, flags: c_uint) -> c_int;
        }
        const SYNC_FILE_RANGE_WRITE: c_uint = 2;
        // A zero length would mean "through the end of the file".
        let (Ok(at), Ok(len @ 1..)) = (i64::try_from(at), i64::try_from(len)) else {
            return;
        };
        // SAFETY: the call takes integers only, no memory; the descriptor
        // is open for as long as `file` is borrowed here.
        let _ = unsafe { sync_file_range(file.as_raw_fd(), at, len, SYNC_FILE_RANGE_WRITE) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (file, at, len);
}

/// Feeds `data` into a CRC-32 state (the pre-inverted register of
/// [`crate::Crc32`]). On x86_64 with `pclmulqdq`, detected at run time,
/// inputs of 64 bytes or more fold 4×128 bits per step; everything else,
/// and the last partial 16 bytes, goes through the slicing-by-16 tables.
/// Both give the same checksum.
pub(crate) fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        let (bulk, tail) = data.split_at(data.len() & !15);
        // SAFETY: the CPU supports `pclmulqdq`, checked just above.
        let state = unsafe { clmul::crc32(state, bulk) };
        return crc32_tables(state, tail);
    }
    crc32_tables(state, data)
}

/// CRC-32 by carry-less multiplication, after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ" (Intel, 2009), as
/// Linux's `crc32-pclmul` applies it to the reflected IEEE polynomial.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold by 4 (512 bits ahead): x^(4·128+32) and x^(4·128−32) mod P,
    /// bit-reflected, low then high.
    const FOLD_BY_4: (i64, i64) = (0x1_5444_2bd4, 0x1_c6e4_1596);
    /// Fold by 1 (128 bits ahead): x^(128+32) and x^(128−32) mod P.
    const FOLD_BY_1: (i64, i64) = (0x1_7519_97d0, 0x0_ccaa_009e);
    /// x^64 mod P: the 64 → 32 bit fold.
    const FOLD_64: i64 = 0x1_63cd_6124;
    /// Barrett reduction: the polynomial P′ and µ = x^64 / P.
    const BARRETT: (i64, i64) = (0x1_DB71_0641, 0x1_F701_1641);

    /// 16 bytes as one lane.
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("a lane is 16 bytes");
        // SAFETY: `block` is 16 readable bytes, the unaligned load has no
        // alignment requirement, and SSE2 is part of every x86_64 CPU.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `x` carried 128 (or 512) bits further by the constant pair `k`,
    /// folded into `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The CRC state after `data`, whose length is a multiple of 16 and
    /// at least 64.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn crc32(state: u32, data: &[u8]) -> u32 {
        assert!(data.len() >= 64 && data.len() % 16 == 0);
        let pair = |(lo, hi): (i64, i64)| _mm_set_epi64x(hi, lo);
        let (by_4, by_1) = (pair(FOLD_BY_4), pair(FOLD_BY_1));
        let mask32 = _mm_set_epi64x(0, 0xFFFF_FFFF);

        // Four lanes of 128 bits, the state folded into the first.
        let (head, rest) = data.split_at(64);
        let mut lanes = [0, 1, 2, 3].map(|i| load(&head[16 * i..16 * (i + 1)]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(state as i32));
        let mut blocks = rest.chunks_exact(64);
        for block in &mut blocks {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold(*lane, by_4, load(&block[16 * i..16 * (i + 1)]));
            }
        }
        // The four lanes into one, then the remaining 16-byte blocks.
        let [first, second, third, fourth] = lanes;
        let mut acc = fold(first, by_1, second);
        acc = fold(acc, by_1, third);
        acc = fold(acc, by_1, fourth);
        for block in blocks.remainder().chunks_exact(16) {
            acc = fold(acc, by_1, load(block));
        }

        // 128 → 64 bits, appending the 32 zero bits a CRC implies.
        let low = _mm_clmulepi64_si128(by_1, acc, 0x01);
        acc = _mm_xor_si128(_mm_srli_si128(acc, 8), low);
        // 64 → 32 bits.
        let high = _mm_srli_si128(acc, 4);
        let low = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), pair((FOLD_64, 0)), 0x00);
        acc = _mm_xor_si128(low, high);
        // Barrett reduction to the 32-bit remainder.
        let barrett = pair(BARRETT);
        let t = _mm_clmulepi64_si128(_mm_and_si128(acc, mask32), barrett, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), barrett, 0x00);
        _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(t, acc), 4)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::reference_crc32;

    /// A deterministic byte stream (xorshift), so every run checks the
    /// same inputs.
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    const STATES: [u32; 3] = [0xFFFF_FFFF, 0, 0x1234_5678];

    /// `crc32_update` — the carry-less-multiply path from 64 bytes on, on
    /// a CPU that has it — against the tables called directly, from three
    /// initial states, and against the bytewise reference from the
    /// standard one; at every length up to 1 KiB and past 64 KiB, and at
    /// every start offset within a 16-byte block.
    #[test]
    fn the_dispatched_crc_matches_the_tables_and_the_reference() {
        let data = bytes((64 << 10) + 47 + 16, 7);
        let lengths = (0..=1024).chain((64 << 10)..=(64 << 10) + 47);
        for len in lengths {
            let offset = len % 16;
            let slice = &data[offset..offset + len];
            for state in STATES {
                assert_eq!(
                    crc32_update(state, slice),
                    crc32_tables(state, slice),
                    "len {len}, offset {offset}, state {state:#x}"
                );
            }
            assert_eq!(
                crc32_update(0xFFFF_FFFF, slice) ^ 0xFFFF_FFFF,
                reference_crc32(slice),
                "len {len}, offset {offset}"
            );
        }
    }
}
