//! CRC-32 (IEEE 802.3) used as the frame check sequence.
//!
//! Reflected form, polynomial 0x04C11DB7 — the same CRC used by Ethernet
//! and 802.11. Implemented here (rather than pulled in) because the FCS
//! is part of this crate's wire contract and must be stable.
//!
//! Two kernels compute the same function:
//!
//! * **Carry-less multiply** (x86_64 with PCLMULQDQ, inputs of 64 bytes
//!   or more): the fold-by-4 scheme of Intel's "Fast CRC Computation
//!   Using PCLMULQDQ" white paper, as used by zlib, Linux and crc32fast —
//!   four 128-bit lanes folded 64 bytes per iteration, then a Barrett
//!   reduction to 32 bits. 8–12× the table kernel on 1.5–5 KiB inputs
//!   (`benches/wire.rs`).
//! * **Slice-by-16** (everywhere else): sixteen derived tables fold 16
//!   input bytes per iteration with independent lookups. It is the
//!   portable path, the carry-less kernel's tail handler, and the oracle
//!   the kernel is tested against ([`crc32_portable`]).
//!
//! The kernel is picked per call by runtime feature detection; there is
//! no knob. Every simulated aggregate has its subframes' FCS computed at
//! assembly, so this is one of the hottest functions in the workspace
//! (see `docs/PERFORMANCE.md`).

/// Number of slice tables (bytes folded per loop iteration).
const SLICES: usize = 16;

/// Precomputed tables for the reflected polynomial 0xEDB88320.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, which lets the bulk
/// loop combine 16 independent lookups per iteration.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < SLICES {
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

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Inputs at least this long take the carry-less-multiply kernel when
/// the CPU has it (the kernel's first step loads four 16-byte lanes).
const CLMUL_MIN_LEN: usize = 64;

/// Feeds `data` into the raw CRC register `crc`, choosing the kernel.
#[inline]
// The one `unsafe` in this crate: calling the `#[target_feature]` kernel
// after runtime detection has proved the feature present.
#[allow(unsafe_code)]
fn update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `clmul::update` only requires the `pclmulqdq` target
        // feature (SSE2 is baseline on x86_64), which was just detected
        // on this CPU; the kernel itself is safe code.
        return unsafe { clmul::update(crc, data) };
    }
    update_portable(crc, data)
}

/// Slice-by-16 over the raw CRC register: the portable kernel.
#[inline]
fn update_portable(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(SLICES);
    for chunk in &mut chunks {
        // Fold the current state into the first four bytes, then look
        // every byte up in its distance-matched table.
        let x = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[15][(x & 0xFF) as usize]
            ^ TABLES[14][((x >> 8) & 0xFF) as usize]
            ^ TABLES[13][((x >> 16) & 0xFF) as usize]
            ^ TABLES[12][(x >> 24) as usize];
        let mut k = 4;
        while k < SLICES {
            crc ^= TABLES[SLICES - 1 - k][chunk[k] as usize];
            k += 1;
        }
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Computes the CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF).
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// [`crc32`] forced onto the portable slice-by-16 kernel — the oracle
/// the carry-less kernel is tested against, and the baseline the
/// micro-benchmarks time it beside.
pub fn crc32_portable(data: &[u8]) -> u32 {
    update_portable(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// The PCLMULQDQ fold-by-4 kernel.
///
/// Constants are `x^k mod P(x)` in the bit-reflected domain for the fold
/// distances (512 ± 32 bits for the 4-lane loop, 128 ± 32 for the
/// single-lane fold), followed by the 64→32-bit Barrett constants `P(x)`
/// and `µ = ⌊x^64 / P(x)⌋` — the values published with the white paper
/// and shared by zlib and Linux.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Loads the next 16 bytes as one lane and advances `data`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn load(data: &mut &[u8]) -> __m128i {
        let (lane, rest) = data.split_at(16);
        *data = rest;
        let lo = u64::from_le_bytes(lane[..8].try_into().expect("8 bytes"));
        let hi = u64::from_le_bytes(lane[8..].try_into().expect("8 bytes"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }

    /// Folds lane `a` forward by the distance `keys` encodes onto `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(a, keys);
        let hi = _mm_clmulepi64_si128::<0x11>(a, keys);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// Feeds `data` (at least [`super::CLMUL_MIN_LEN`] bytes) into the
    /// raw CRC register `crc`. Whole 16-byte lanes are folded here; the
    /// remaining 0–15 bytes go through the slice-by-16 kernel.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(crc: u32, mut data: &[u8]) -> u32 {
        debug_assert!(data.len() >= super::CLMUL_MIN_LEN);
        let mut x3 = load(&mut data);
        let mut x2 = load(&mut data);
        let mut x1 = load(&mut data);
        let mut x0 = load(&mut data);
        x3 = _mm_xor_si128(x3, _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        while data.len() >= 64 {
            x3 = fold(x3, load(&mut data), k1k2);
            x2 = fold(x2, load(&mut data), k1k2);
            x1 = fold(x1, load(&mut data), k1k2);
            x0 = fold(x0, load(&mut data), k1k2);
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        while data.len() >= 16 {
            x = fold(x, load(&mut data), k3k4);
        }

        // 128 → 64 bits, then 64 → 32 by Barrett reduction (reflected).
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k3k4), _mm_srli_si128::<8>(x));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let c = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32;
        super::update_portable(c, data)
    }
}

/// Incremental CRC-32 for multi-slice frames.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh computation.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finishes and returns the CRC value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"hello, aggregated world";
        let mut inc = Crc32::new();
        inc.update(&data[..5]);
        inc.update(&data[5..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"frame payload with enough bytes to matter";
        let good = crc32(data);
        let mut corrupted = data.to_vec();
        for byte in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), good, "flip at {byte}:{bit} undetected");
                corrupted[byte] ^= 1 << bit;
            }
        }
    }

    /// Offset-shifted copies of a deterministic byte pattern, so the
    /// kernel is fed both aligned and unaligned slices.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u32).wrapping_mul(2_654_435_761).rotate_left(7) as u8).collect()
    }

    #[test]
    fn kernel_matches_slice_by_16() {
        let buf = pattern(5120 + 16);
        for state in [0xFFFF_FFFF, 0, 0x1234_5678] {
            for offset in [0usize, 1, 3, 7, 15] {
                let lens = (0..=600).chain([1464, 4096, 5120]);
                for len in lens {
                    let data = &buf[offset..offset + len];
                    assert_eq!(
                        update(state, data),
                        update_portable(state, data),
                        "len {len} offset {offset} state {state:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_split_across_kernel_threshold_matches_oneshot() {
        let data = pattern(3 * CLMUL_MIN_LEN + 9);
        let want = crc32(&data);
        assert_eq!(want, crc32_portable(&data));
        for split in 0..=data.len() {
            let mut inc = Crc32::new();
            inc.update(&data[..split]);
            inc.update(&data[split..]);
            assert_eq!(inc.finish(), want, "split at {split}");
        }
    }

    #[test]
    fn detects_swaps() {
        let a = crc32(b"ab");
        let b = crc32(b"ba");
        assert_ne!(a, b);
    }
}
