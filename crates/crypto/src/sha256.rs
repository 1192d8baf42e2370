//! SHA-256 (FIPS 180-4).
//!
//! This is the conventional secure one-way hash `h` used throughout the
//! compliance architecture: tuple hashes inside ADD-HASH and `Hs`, page-read
//! hashes, `SHREDDED` content hashes, and the Lamport signature scheme.
//!
//! The padding and the incremental (`update`/`finalize`) interface are
//! written here once. The 64-round compression function has two backends,
//! chosen at run time on each call of `compress_blocks`:
//!
//! * on x86-64 CPUs with the SHA extensions, a `std::arch` SHA-NI kernel
//!   (`shani`, the crate's only `unsafe` code) that keeps the state in
//!   registers across a whole run of blocks;
//! * everywhere else, the textbook scalar compression function, written
//!   from scratch. It is also the oracle: the unit tests run the NIST
//!   vectors, the padding edge cases and a seeded differential test through
//!   both backends on every host that has SHA-NI.
//!
//! Both produce bit-identical digests; nothing selects the backend but the
//! CPU. [`backend`] names the one in use.

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani;

/// A 256-bit digest.
pub type Digest = [u8; 32];

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block not yet compressed.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 { state: H0, len: 0, buf: [0u8; 64], buf_len: 0 }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.update_with(data, compress_blocks)
    }

    /// Finishes the computation, producing the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress_blocks)
    }

    fn update_with(&mut self, mut data: &[u8], compress: CompressFn) -> &mut Self {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &[self.buf]);
                self.buf_len = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
        self
    }

    fn finalize_with(mut self, compress: CompressFn) -> Digest {
        // Padding: 0x80, zeros to 56 mod 64, the 64-bit big-endian bit
        // length; one block if the tail leaves room for the 9 bytes, else two.
        let n = self.buf_len;
        let mut tail = [[0u8; 64]; 2];
        tail[0][..n].copy_from_slice(&self.buf[..n]);
        tail[0][n] = 0x80;
        let used = if n < 56 { 1 } else { 2 };
        tail[used - 1][56..].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &tail[..used]);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// A compression backend: folds a run of whole blocks into the state.
type CompressFn = fn(&mut [u32; 8], &[[u8; 64]]);

/// Compresses a run of whole 64-byte blocks into `state`, on SHA-NI when
/// the CPU has it and on the scalar [`compress`] otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_scalar(state, blocks);
}

fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        compress(state, block);
    }
}

/// The compression backend this CPU runs: `"sha-ni"` or `"scalar"`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        return "sha-ni";
    }
    "scalar"
}

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
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
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of the concatenation of two byte strings, without allocating.
pub fn sha256_pair(a: &[u8], b: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;
    use ccdb_common::SplitMix64;

    /// Every backend this host runs, the scalar oracle first. Tests drive
    /// the scalar compression directly, so SHA-NI hosts test it too.
    fn backends() -> Vec<(&'static str, CompressFn)> {
        let scalar: (&'static str, CompressFn) = ("scalar", compress_blocks_scalar);
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            return vec![scalar, ("sha-ni", |s, b| assert!(shani::compress_blocks(s, b)))];
        }
        vec![scalar]
    }

    fn hash_with<'a>(compress: CompressFn, chunks: impl IntoIterator<Item = &'a [u8]>) -> Digest {
        let mut h = Sha256::new();
        for c in chunks {
            h.update_with(c, compress);
        }
        h.finalize_with(compress)
    }

    fn check(data: &[u8], hex: &str) {
        assert_eq!(to_hex(&sha256(data)), hex, "dispatched, {} bytes", data.len());
        for (name, compress) in backends() {
            assert_eq!(to_hex(&hash_with(compress, [data])), hex, "{name}, {} bytes", data.len());
        }
    }

    // NIST / well-known vectors, through the dispatched hasher and each
    // backend.
    #[test]
    fn empty_vector() {
        check(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc_vector() {
        check(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn two_block_vector() {
        check(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
        check(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a_vector() {
        check(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn exactly_55_56_63_64_byte_messages() {
        // Around the block boundary: 55 bytes is the longest tail that
        // pads within one block, 56 the shortest that needs a second.
        for (n, hex) in [
            (55, "5f25f149aa92e3e13093aed8216072fae623f35e26ca605b6cce17e04b7ccf44"),
            (56, "301c69927f1603720c9f847b7e5e3bef77a7b9f75344490fe9039f13c36b842a"),
            (57, "30ab35131f9b368e840dc65fc1eb832706e748e3c5e44ec40bc19cd1ce5c0dc2"),
            (63, "939765b120205cbedae2ed31256b1967c38b6bdd9b0220535224cbc0b906d333"),
            (64, "cc7321cce5e4409bd8077d58422e1214969059bbd40b4eeb0de0a642f40f7282"),
            (65, "b8de0db62b6c87db61345504a8038bf973d987e8d2111abd8beb407c0bf3d9db"),
            (119, "a96851d641310ce032ff832b6f08125878deed2a825fe515dd1ba414afe95f7e"),
            (120, "60ec7f280e45d0c7bf77b70ff16958b1c1701a9fb7faa12b798207cf120ec6ee"),
        ] {
            let data = vec![0x5Au8; n];
            check(&data, hex);
            for (name, compress) in backends() {
                let split = hash_with(compress, [&data[..n / 2], &data[n / 2..]]);
                assert_eq!(to_hex(&split), hex, "{name}, {n} bytes in two updates");
            }
        }
    }

    #[test]
    fn dispatched_matches_scalar_on_random_messages() {
        let mut rng = SplitMix64::seed_from_u64(0x5EED_0256);
        for case in 0..300 {
            let mut data = vec![0u8; rng.gen_range(0..=4200usize)];
            rng.fill_bytes(&mut data);
            let mut chunks = Vec::new();
            let mut rest = data.as_slice();
            while !rest.is_empty() {
                let (c, r) = rest.split_at(rng.gen_range(0..=rest.len().min(300)));
                chunks.push(c);
                rest = r;
            }
            let oracle = hash_with(compress_blocks_scalar, [data.as_slice()]);
            let mut h = Sha256::new();
            for c in &chunks {
                h.update(c);
            }
            assert_eq!(h.finalize(), oracle, "case {case}: {} bytes, {chunks:?}", data.len());
            assert_eq!(hash_with(compress_blocks_scalar, chunks), oracle, "case {case}");
        }
    }

    #[test]
    fn backends_agree_on_random_block_runs() {
        let mut rng = SplitMix64::seed_from_u64(0x5EED_B10C);
        for case in 0..500 {
            let mut state = [0u32; 8];
            state.iter_mut().for_each(|w| *w = rng.next_u64() as u32);
            // Mostly single blocks; some runs, which carry the state in
            // registers from block to block.
            let mut blocks =
                vec![[0u8; 64]; if case % 4 == 0 { rng.gen_range(2..9usize) } else { 1 }];
            blocks.iter_mut().for_each(|b| rng.fill_bytes(b));
            let mut oracle = state;
            compress_blocks_scalar(&mut oracle, &blocks);
            for (name, compress) in backends() {
                let mut got = state;
                compress(&mut got, &blocks);
                assert_eq!(got, oracle, "{name}, case {case}");
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let expected = sha256(&data);
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), expected, "chunk size {chunk}");
        }
    }

    #[test]
    fn pair_matches_concatenation() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"));
        assert_eq!(sha256_pair(b"", b"abc"), sha256(b"abc"));
    }
}
