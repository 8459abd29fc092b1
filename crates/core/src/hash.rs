//! A dependency-free SHA-256 for store integrity.
//!
//! The fleet store (PR 7) names every shard file and config by content
//! hash, so corruption — a truncated write, a flipped bit, a stale file
//! from another experiment — is *detected*, never silently merged. The
//! build environment has no crates.io access, so the workspace carries
//! its own implementation of FIPS 180-4 SHA-256. It is pure
//! computation: no IO, no clocks, no ambient state — the same bytes
//! always hash to the same digest, which is exactly the property the
//! resume protocol leans on.
//!
//! The block function has a portable form (the fallback, and the tests'
//! reference) and on x86-64 one on the SHA extensions, about ten times
//! faster; [`Sha256::new`] picks by `is_x86_feature_detected!` alone.

/// Incremental SHA-256 (FIPS 180-4).
///
/// ```
/// use pwnd_core::hash::Sha256;
///
/// // The empty-input digest is the best-known test vector.
/// assert_eq!(
///     Sha256::digest_hex(b""),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes fed so far (message length for the final padding).
    length: u64,
    block: [u8; 64],
    fill: usize,
    compress: Compress,
}

/// A block function: folds each whole 64-byte block of `blocks` into `state`.
type Compress = fn(&mut [u32; 8], &[u8]);

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher, on the fastest block function this CPU runs.
    pub fn new() -> Sha256 {
        #[cfg(target_arch = "x86_64")]
        let compress = shani::detect().unwrap_or(compress_portable);
        #[cfg(not(target_arch = "x86_64"))]
        let compress: Compress = compress_portable;
        Sha256 {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            length: 0,
            block: [0; 64],
            fill: 0,
            compress,
        }
    }

    /// Absorb `data`; whole blocks go to the block function in one call.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.fill > 0 {
            let take = rest.len().min(64 - self.fill);
            self.block[self.fill..self.fill + take].copy_from_slice(&rest[..take]);
            self.fill += take;
            rest = &rest[take..];
            if self.fill < 64 {
                // Block still not full — everything was buffered.
                return;
            }
            (self.compress)(&mut self.state, &self.block);
            self.fill = 0;
        }
        let (whole, tail) = rest.split_at(rest.len() - rest.len() % 64);
        (self.compress)(&mut self.state, whole);
        self.block[..tail.len()].copy_from_slice(tail);
        self.fill = tail.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Pad with 0x80, zeros and the bit length (a second block if need be).
        let bit_len = self.length.wrapping_mul(8);
        self.block[self.fill] = 0x80;
        self.block[self.fill + 1..].fill(0);
        if self.fill >= 56 {
            (self.compress)(&mut self.state, &self.block);
            self.block = [0; 64];
        }
        self.block[56..].copy_from_slice(&bit_len.to_be_bytes());
        (self.compress)(&mut self.state, &self.block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// One-shot digest as lowercase hex — the form manifests store.
    pub fn digest_hex(data: &[u8]) -> String {
        let mut h = Sha256::new();
        h.update(data);
        hex(&h.finalize())
    }
}

/// The portable block function: FIPS 180-4 section 6.2.2, word by word.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The block function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{Compress, K};
    use std::arch::x86_64::*;

    /// The SHA-NI block function, if this CPU has every feature it uses.
    pub(super) fn detect() -> Option<Compress> {
        // SSE2 is part of x86-64 itself.
        let present = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        present.then_some(compress as Compress)
    }

    fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `compress_blocks` needs the sha, sse2, ssse3 and sse4.1
        // features. This fn is private, and the only way to reach it is
        // the pointer `detect` returns after finding them all.
        unsafe { compress_blocks(state, blocks) }
    }

    /// # Safety
    /// The CPU must have every feature enabled below; `detect` checks.
    // SAFETY: all loads and stores are unaligned and in bounds: the state
    // is two 16-byte vectors, each 64-byte block four and `K` sixteen.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // The rounds instruction wants the state as (a,b,e,f), (c,d,g,h).
        let cdab = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().cast()), 0xb1);
        let efgh = _mm_shuffle_epi32(_mm_loadu_si128(state.as_ptr().add(4).cast()), 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words = block.as_ptr().cast::<__m128i>();
            // The last sixteen schedule words, four to a vector, oldest first.
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(words), be_words);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), be_words);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), be_words);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), be_words);
            for i in 0..16 {
                // Past round 16, `w0` first becomes the next four words.
                if i >= 4 {
                    let s0 = _mm_sha256msg1_epu32(w0, w1);
                    let t7 = _mm_alignr_epi8(w3, w2, 4);
                    w0 = _mm_sha256msg2_epu32(_mm_add_epi32(s0, t7), w3);
                }
                let wk = _mm_add_epi32(w0, _mm_loadu_si128(K.as_ptr().add(4 * i).cast()));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                (w0, w1, w2, w3) = (w1, w2, w3, w0);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let out = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(out, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(out.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// Lowercase hex of a digest.
pub fn hex(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// FIPS 180-4 / RFC 6234 test vectors, as (input, digest).
    fn vectors() -> Vec<(Vec<u8>, &'static str)> {
        vec![
            (
                b"".to_vec(),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc".to_vec(),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            // One million 'a's — exercises many blocks.
            (
                vec![b'a'; 1_000_000],
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ]
    }

    /// Digest of `data` fed in pieces of `step` bytes.
    fn chunked(compress: Compress, data: &[u8], step: usize) -> String {
        let mut h = Sha256 {
            compress,
            ..Sha256::new()
        };
        for piece in data.chunks(step.max(1)) {
            h.update(piece);
        }
        hex(&h.finalize())
    }

    /// The SHA-NI block function, or a note that this CPU cannot run
    /// it: a test then checks the portable path alone and says so.
    fn shani_or_note() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        {
            if let Some(compress) = shani::detect() {
                return Some(compress);
            }
        }
        eprintln!("note: this CPU lacks the x86 SHA extensions; the SHA-NI path was not run");
        None
    }

    #[test]
    fn known_vectors() {
        for (input, digest) in vectors() {
            assert_eq!(Sha256::digest_hex(&input), digest);
        }
        // The million 'a's again, fed 1000 bytes at a time.
        let (input, digest) = &vectors()[3];
        assert_eq!(chunked(Sha256::new().compress, input, 1000), *digest);
    }

    /// The vectors through each block function on its own. Without the
    /// SHA extensions only the portable half runs, and the test says so.
    #[test]
    fn known_vectors_on_each_path() {
        let shani = shani_or_note();
        for (input, digest) in vectors() {
            assert_eq!(chunked(compress_portable, &input, 1000), digest);
            if let Some(shani) = shani {
                assert_eq!(chunked(shani, &input, 1000), digest);
            }
        }
    }

    /// Chunking must not matter: hashing in odd-sized pieces equals the
    /// one-shot digest.
    #[test]
    fn chunking_invariance() {
        let data: Vec<u8> = (0..257u16).map(|i| (i % 251) as u8).collect();
        let oneshot = Sha256::digest_hex(&data);
        for step in [1usize, 3, 63, 64, 65, 100] {
            let mut h = Sha256::new();
            for piece in data.chunks(step) {
                h.update(piece);
            }
            assert_eq!(hex(&h.finalize()), oneshot, "chunk size {step}");
        }
    }

    /// Every length up to 299 bytes, the padding edges (55, 56, 63, 64,
    /// 119, 120) among them: both paths give the same digest.
    #[test]
    fn paths_agree_on_every_short_length() {
        let shani = shani_or_note();
        let data: Vec<u8> = (0..300u16).map(|i| (i * 7 % 256) as u8).collect();
        for len in 0..data.len() {
            let reference = chunked(compress_portable, &data[..len], len);
            assert_eq!(Sha256::digest_hex(&data[..len]), reference, "length {len}");
            if let Some(shani) = shani {
                assert_eq!(chunked(shani, &data[..len], len), reference, "length {len}");
            }
        }
    }

    proptest! {
        /// Arbitrary bytes in an arbitrary chunking: the portable path,
        /// the SHA-NI path and the one-shot digest agree.
        #[test]
        fn paths_agree_on_any_bytes_and_chunking(
            data in proptest::collection::vec(any::<u8>(), 0..700),
            edge in 0usize..7,
            step in 1usize..130,
        ) {
            // Six in seven cases cut the input at a padding edge.
            let len = [55, 56, 63, 64, 119, 120, data.len()][edge].min(data.len());
            let data = &data[..len];
            let oneshot = Sha256::digest_hex(data);
            prop_assert_eq!(chunked(compress_portable, data, step), oneshot.clone());
            if let Some(shani) = shani_or_note() {
                prop_assert_eq!(chunked(shani, data, step), oneshot);
            }
        }
    }

    #[test]
    fn single_byte_change_changes_digest() {
        let base = b"the fleet store leans on this".to_vec();
        let d0 = Sha256::digest_hex(&base);
        for i in 0..base.len() {
            let mut m = base.clone();
            m[i] ^= 1;
            assert_ne!(Sha256::digest_hex(&m), d0, "byte {i}");
        }
    }
}
