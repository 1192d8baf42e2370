//! Cryptographic primitives for the compliant DBMS, implemented from scratch
//! on `std` alone.
//!
//! The paper's architecture needs four primitives:
//!
//! * a conventional secure one-way hash `h` — [`sha256`], a FIPS 180-4
//!   SHA-256 implementation validated against the NIST test vectors. Its
//!   compression function runs on the x86 SHA extensions (SHA-NI) when the
//!   CPU has them, detected at run time, and on a textbook scalar
//!   implementation otherwise; the scalar code is also the oracle the SHA-NI
//!   kernel is tested against. Every other primitive here, and every hash in
//!   the workspace, goes through this one hasher;
//! * the **ADD-HASH** commutative incremental *set* hash of Bellare and
//!   Micciancio (`H({a₁..aₙ}) = Σ h'(aᵢ) mod 2⁵¹²`) — [`addhash`] — which the
//!   auditor uses for the single-pass tuple-completeness check
//!   `H(Ds ∪ L) = H(Df)`;
//! * the **sequential page hash** `Hs` — [`seqhash`] — an append-extendable
//!   hash chain over a page's tuples in tuple-order-number order, logged by
//!   the hash-page-on-read refinement and replayed by the auditor;
//! * a **digital signature** for the auditor's snapshot attestations —
//!   [`lamport`], Lamport one-time signatures over SHA-256 (the paper only
//!   needs "the auditor's digital signature testifying that the snapshot is
//!   correct"; an OTS per audit is exactly that).

pub mod addhash;
pub mod lamport;
pub mod seqhash;
pub mod sha256;

pub use addhash::AddHash;
pub use lamport::{LamportKeyPair, LamportPublicKey, LamportSignature};
pub use seqhash::HsChain;
pub use sha256::{sha256, Digest, Sha256};

/// Renders a digest (or any byte string) as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(HEX[(b >> 4) as usize] as char);
        s.push(HEX[(b & 0xf) as usize] as char);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
    }
}
