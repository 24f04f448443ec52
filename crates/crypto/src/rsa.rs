//! RSA signatures with message recovery.
//!
//! The paper writes `[msg]XSK` for "the ciphertext of `msg` encrypted by
//! host X's private key", verified by decrypting with the public key `XPK`
//! and comparing against the expected plaintext. That is exactly an RSA
//! signature with message recovery over a deterministic encoding; we sign
//! the SHA-256 digest of the message inside an EMSA-PKCS#1-v1.5-shaped
//! frame:
//!
//! ```text
//! 0x00 0x01 0xFF … 0xFF 0x00 <32-byte SHA-256 digest>
//! ```
//!
//! Signing uses the CRT (p, q, dP, dQ, qInv) for a ~4x speedup; a CRT
//! fault check (`verify after sign` against the public key) guards against
//! the classic Bellcore fault-attack-shaped implementation bug.

use crate::modular::{invmod, MontgomeryCtx};
use crate::prime::gen_prime;
use crate::sha256::{digest_head, sha256, DIGEST_LEN};
use crate::uint::Ubig;
use rand::Rng;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Public exponent: F4 = 65537.
const E: u64 = 65537;

/// Smallest modulus [`PublicKey::from_parts`] accepts.
const MIN_MODULUS_BITS: u32 = 256;

/// Largest modulus [`PublicKey::from_parts`] accepts. Keys arrive in
/// frames from anyone, and the cost of using one grows with the square
/// (context) and cube (verify) of its size; exhibits sweep to 2048 bits.
/// Also the most limbs (64) the Montgomery kernel is ever asked for.
pub const MAX_MODULUS_BITS: u32 = 4096;

/// Largest public exponent accepted: one limb. Verification costs one
/// squaring per exponent bit, so an oversized `e` is the oversized-`n`
/// attack through the other field.
const MAX_EXPONENT_BITS: u32 = 64;

/// Shortest frame [`emsa_frame`] can build: digest, three framing bytes
/// and at least eight bytes of padding.
const MIN_FRAME_LEN: usize = DIGEST_LEN + 11;

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// Signature does not verify under the given public key.
    BadSignature,
    /// Signature integer is not smaller than the modulus.
    SignatureOutOfRange,
    /// Key material is malformed (modulus even, too small for the frame
    /// or above [`MAX_MODULUS_BITS`]; exponent even or above one limb).
    InvalidKey,
}

impl fmt::Display for RsaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsaError::BadSignature => write!(f, "signature verification failed"),
            RsaError::SignatureOutOfRange => write!(f, "signature not reduced modulo n"),
            RsaError::InvalidKey => write!(f, "invalid RSA key material"),
        }
    }
}

impl std::error::Error for RsaError {}

/// An RSA public key `(n, e)`.
///
/// Cloning is cheap, and clones share what the key memoizes on first
/// use, so each is computed once per key and not once per call or copy.
#[derive(Clone)]
pub struct PublicKey {
    n: Ubig,
    e: Ubig,
    memo: Arc<KeyMemo>,
}

#[derive(Default)]
struct KeyMemo {
    /// Montgomery context for `n`, built by the first `verify`: most
    /// decoded keys (duplicate flood copies, verdicts answered from the
    /// `VerifyCache`) are never verified with.
    ctx: OnceLock<MontgomeryCtx>,
    /// `SHA-256(to_bytes())`, from which [`PublicKey::fingerprint`] derives.
    digest: OnceLock<[u8; 32]>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}
impl Eq for PublicKey {}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.n.to_hex();
        let head = &hex[..hex.len().min(8)];
        write!(f, "PublicKey(n≈0x{head}…, {} bits)", self.n.bit_len())
    }
}

impl PublicKey {
    /// Construct from raw modulus and exponent.
    pub fn from_parts(n: Ubig, e: Ubig) -> Result<Self, RsaError> {
        check_shape(n.bit_len(), !n.is_even(), e.bit_len(), !e.is_even())?;
        Ok(PublicKey {
            n,
            e,
            memo: Arc::default(),
        })
    }

    fn ctx(&self) -> &MontgomeryCtx {
        self.memo.ctx.get_or_init(|| MontgomeryCtx::new(&self.n))
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// Modulus size in bytes (= signature size).
    pub fn modulus_len(&self) -> usize {
        (self.n.bit_len() as usize).div_ceil(8)
    }

    /// Serialize as `len(n) || n_be || len(e) || e_be` (u16 lengths).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.n.byte_len() + self.e.byte_len());
        self.write_to(&mut out);
        out
    }

    /// Append the [`Self::to_bytes`] encoding to `out` without an
    /// intermediate buffer.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        for x in [&self.n, &self.e] {
            out.extend_from_slice(&(x.byte_len() as u16).to_be_bytes());
            x.write_be_bytes(out);
        }
    }

    /// Would [`Self::from_bytes`] accept `data`? Reads the bit lengths
    /// and parities from the bytes, so a frame's key is checked without
    /// building the integers.
    pub fn check_bytes(data: &[u8]) -> Result<(), RsaError> {
        let (n, e) = key_chunks(data)?;
        check_shape(be_bit_len(n), be_is_odd(n), be_bit_len(e), be_is_odd(e))
    }

    /// Parse the [`Self::to_bytes`] encoding.
    pub fn from_bytes(data: &[u8]) -> Result<Self, RsaError> {
        Self::check_bytes(data)?;
        let (n, e) = key_chunks(data)?;
        Ok(PublicKey {
            n: Ubig::from_be_bytes(n),
            e: Ubig::from_be_bytes(e),
            memo: Arc::default(),
        })
    }

    /// Verify `sig` over `msg`. The paper's "decrypt `[msg]XSK` with `XPK`
    /// and compare": we recover the frame and compare digests.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), RsaError> {
        if sig.0 >= self.n {
            return Err(RsaError::SignatureOutOfRange);
        }
        let recovered = self.ctx().modpow(&sig.0, &self.e);
        let frame = recovered.to_be_bytes_padded(self.modulus_len());
        let expect = emsa_frame(msg, self.modulus_len())?;
        // Constant-time-ish comparison; the simulator is not a side-channel
        // target but the habit is free.
        let mut diff = 0u8;
        for (a, b) in frame.iter().zip(expect.iter()) {
            diff |= a ^ b;
        }
        if diff == 0 && frame.len() == expect.len() {
            Ok(())
        } else {
            Err(RsaError::BadSignature)
        }
    }

    /// `SHA-256(to_bytes())`, memoized on first use (the key material is
    /// immutable, so the digest is a pure function of the key). Also the
    /// key component of [`crate::VerifyKey`].
    pub fn digest(&self) -> &[u8; 32] {
        self.memo.digest.get_or_init(|| sha256(&self.to_bytes()))
    }

    /// A short fingerprint of the key (first 8 digest bytes), used for
    /// logging and credit-table indexing.
    pub fn fingerprint(&self) -> u64 {
        digest_head(self.digest())
    }
}

/// The one definition of a usable key: odd modulus of
/// [`MIN_MODULUS_BITS`]..=[`MAX_MODULUS_BITS`], odd exponent of at most
/// one limb (0 counts as even).
fn check_shape(n_bits: u32, n_odd: bool, e_bits: u32, e_odd: bool) -> Result<(), RsaError> {
    if n_odd
        && (MIN_MODULUS_BITS..=MAX_MODULUS_BITS).contains(&n_bits)
        && e_odd
        && e_bits <= MAX_EXPONENT_BITS
    {
        Ok(())
    } else {
        Err(RsaError::InvalidKey)
    }
}

/// Split `len(n) || n || len(e) || e` into its two chunks, rejecting
/// short input and trailing bytes.
fn key_chunks(data: &[u8]) -> Result<(&[u8], &[u8]), RsaError> {
    let (n, rest) = read_chunk(data).ok_or(RsaError::InvalidKey)?;
    let (e, rest) = read_chunk(rest).ok_or(RsaError::InvalidKey)?;
    if !rest.is_empty() {
        return Err(RsaError::InvalidKey);
    }
    Ok((n, e))
}

fn read_chunk(data: &[u8]) -> Option<(&[u8], &[u8])> {
    if data.len() < 2 {
        return None;
    }
    let len = u16::from_be_bytes([data[0], data[1]]) as usize;
    if data.len() < 2 + len {
        return None;
    }
    Some((&data[2..2 + len], &data[2 + len..]))
}

/// [`Ubig::bit_len`] of the big-endian integer `b`, leading zero bytes
/// allowed.
fn be_bit_len(b: &[u8]) -> u32 {
    match b.iter().position(|&x| x != 0) {
        None => 0,
        Some(i) => (b.len() - i - 1) as u32 * 8 + (8 - b[i].leading_zeros()),
    }
}

/// Is the big-endian integer `b` odd (the empty integer is 0)?
fn be_is_odd(b: &[u8]) -> bool {
    b.last().is_some_and(|x| x & 1 == 1)
}

/// An RSA signature (an integer modulo `n`).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature(pub(crate) Ubig);

impl Signature {
    /// Serialize as minimal big-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_be_bytes()
    }

    /// Append the [`Self::to_bytes`] encoding to `out` without an
    /// intermediate buffer.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        self.0.write_be_bytes(out);
    }

    /// Parse from big-endian bytes.
    pub fn from_bytes(data: &[u8]) -> Self {
        Signature(Ubig::from_be_bytes(data))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hex = self.0.to_hex();
        write!(f, "Signature(0x{}…)", &hex[..hex.len().min(8)])
    }
}

/// An RSA key pair with CRT acceleration for signing.
pub struct KeyPair {
    public: PublicKey,
    /// Private exponent (kept for serialization/debugging; CRT is used to sign).
    d: Ubig,
    p: Ubig,
    q: Ubig,
    d_p: Ubig,
    d_q: Ubig,
    q_inv: Ubig,
    ctx_p: MontgomeryCtx,
    ctx_q: MontgomeryCtx,
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyPair({:?})", self.public)
    }
}

impl KeyPair {
    /// Generate a fresh key pair with a modulus of `bits` bits.
    ///
    /// `bits` must be even and at least 338, the narrowest modulus that
    /// holds the signature frame. 512-bit keys are the simulator default
    /// (fast, structurally faithful); benchmarks sweep to 2048.
    pub fn generate<R: Rng>(bits: u32, rng: &mut R) -> Self {
        assert!(
            (bits as usize).div_ceil(8) >= MIN_FRAME_LEN,
            "modulus of {bits} bits cannot hold the signature frame"
        );
        assert!(bits.is_multiple_of(2), "modulus bits must be even");
        let e = Ubig::from(E);
        loop {
            let p = gen_prime(bits / 2, rng);
            let q = gen_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let one = Ubig::one();
            let phi = &(&p - &one) * &(&q - &one);
            let Some(d) = invmod(&e, &phi) else {
                continue; // gcd(e, phi) != 1; re-roll primes
            };
            let n = &p * &q;
            debug_assert_eq!(n.bit_len(), bits);
            let d_p = d.div_rem(&(&p - &one)).1;
            let d_q = d.div_rem(&(&q - &one)).1;
            let public = PublicKey::from_parts(n, e.clone()).expect("valid by construction");
            let ctx_p = MontgomeryCtx::new(&p);
            // Fermat: q^(p-2) = q^-1 mod p, through the context signing
            // needs anyway.
            let q_inv = ctx_p.modpow(&q, &(&p - &Ubig::from(2u64)));
            let ctx_q = MontgomeryCtx::new(&q);
            return KeyPair {
                public,
                d,
                p,
                q,
                d_p,
                d_q,
                q_inv,
                ctx_p,
                ctx_q,
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Sign `msg`: the paper's `[msg]XSK`.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let frame = emsa_frame(msg, self.public.modulus_len()).expect("key admits frame");
        let m = Ubig::from_be_bytes(&frame);
        // CRT: s_p = m^dP mod p, s_q = m^dQ mod q, recombine via Garner.
        let s_p = self.ctx_p.modpow(&m, &self.d_p);
        let s_q = self.ctx_q.modpow(&m, &self.d_q);
        // h = qInv * (s_p - s_q) mod p
        let reduced;
        let s_q_mod_p = if s_q < self.p {
            &s_q
        } else {
            reduced = s_q.div_rem(&self.p).1;
            &reduced
        };
        let mut diff = s_p;
        if diff < *s_q_mod_p {
            diff += &self.p;
        }
        diff -= s_q_mod_p;
        let h = (&self.q_inv * &diff).div_rem(&self.p).1;
        let mut s = &h * &self.q;
        s += &s_q;
        let sig = Signature(s);
        // Fault check: a CRT recombination bug would leak the factors in a
        // real deployment; here it guards implementation correctness.
        debug_assert!(self.public.verify(msg, &sig).is_ok());
        sig
    }

    /// Sign using the straight (non-CRT) exponent. Slower; exists so the
    /// benches can quantify the CRT speedup and tests can cross-check.
    pub fn sign_no_crt(&self, msg: &[u8]) -> Signature {
        let frame = emsa_frame(msg, self.public.modulus_len()).expect("key admits frame");
        let m = Ubig::from_be_bytes(&frame);
        Signature(self.public.ctx().modpow(&m, &self.d))
    }
}

/// Deterministic digest frame `0x00 0x01 FF… 0x00 digest`, `len` bytes.
fn emsa_frame(msg: &[u8], len: usize) -> Result<Vec<u8>, RsaError> {
    if len < MIN_FRAME_LEN {
        return Err(RsaError::InvalidKey);
    }
    let mut frame = vec![0xFFu8; len];
    frame[0] = 0x00;
    frame[1] = 0x01;
    frame[len - DIGEST_LEN - 1] = 0x00;
    frame[len - DIGEST_LEN..].copy_from_slice(&sha256(msg));
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(42)
    }

    fn keypair() -> KeyPair {
        KeyPair::generate(512, &mut rng())
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair();
        let sig = kp.sign(b"hello manet");
        assert!(kp.public().verify(b"hello manet", &sig).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let kp = keypair();
        let sig = kp.sign(b"route request 1");
        assert_eq!(
            kp.public().verify(b"route request 2", &sig),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let kp1 = keypair();
        let mut r2 = ChaCha12Rng::seed_from_u64(99);
        let kp2 = KeyPair::generate(512, &mut r2);
        let sig = kp1.sign(b"msg");
        assert!(kp2.public().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = keypair();
        let sig = kp.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[0] ^= 0x01;
        let bad = Signature::from_bytes(&bytes);
        assert!(kp.public().verify(b"msg", &bad).is_err());
    }

    #[test]
    fn out_of_range_signature_rejected_cleanly() {
        let kp = keypair();
        let huge = Signature(kp.public().modulus() + &Ubig::one());
        assert_eq!(
            kp.public().verify(b"x", &huge),
            Err(RsaError::SignatureOutOfRange)
        );
    }

    #[test]
    fn crt_and_no_crt_agree() {
        let kp = keypair();
        for msg in [b"a".as_slice(), b"longer message with more bytes", b""] {
            assert_eq!(kp.sign(msg).to_bytes(), kp.sign_no_crt(msg).to_bytes());
        }
    }

    #[test]
    fn empty_message_signs() {
        let kp = keypair();
        assert!(kp.public().verify(b"", &kp.sign(b"")).is_ok());
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let kp = keypair();
        let pk2 = PublicKey::from_bytes(&kp.public().to_bytes()).unwrap();
        assert_eq!(*kp.public(), pk2);
        let sig = kp.sign(b"serialize me");
        assert!(pk2.verify(b"serialize me", &sig).is_ok());
    }

    #[test]
    fn public_key_parse_rejects_malformed() {
        assert!(PublicKey::from_bytes(&[]).is_err());
        assert!(PublicKey::from_bytes(&[0, 5, 1, 2]).is_err());
        let kp = keypair();
        let mut bytes = kp.public().to_bytes();
        bytes.push(0); // trailing junk
        assert!(PublicKey::from_bytes(&bytes).is_err());
    }

    #[test]
    fn from_parts_validates() {
        assert!(PublicKey::from_parts(Ubig::from(15u64), Ubig::from(3u64)).is_err()); // too small
        let kp = keypair();
        assert!(PublicKey::from_parts(kp.public().modulus().clone(), Ubig::from(4u64)).is_err());
        // even e
    }

    #[test]
    fn from_parts_caps_modulus_and_exponent() {
        let odd_of = |bits: u32| (Ubig::one() << (bits - 1)) + Ubig::one();
        let f4 = Ubig::from(E);
        assert!(PublicKey::from_parts(odd_of(MAX_MODULUS_BITS), f4.clone()).is_ok());
        assert_eq!(
            PublicKey::from_parts(odd_of(MAX_MODULUS_BITS + 1), f4),
            Err(RsaError::InvalidKey)
        );
        let n = keypair().public().modulus().clone();
        assert!(PublicKey::from_parts(n.clone(), Ubig::from(u64::MAX)).is_ok());
        assert_eq!(
            PublicKey::from_parts(n, odd_of(MAX_EXPONENT_BITS + 1)),
            Err(RsaError::InvalidKey)
        );
    }

    #[test]
    fn fingerprints_differ_between_keys() {
        let kp1 = keypair();
        let mut r2 = ChaCha12Rng::seed_from_u64(1234);
        let kp2 = KeyPair::generate(512, &mut r2);
        assert_ne!(kp1.public().fingerprint(), kp2.public().fingerprint());
        // And stable for the same key.
        assert_eq!(kp1.public().fingerprint(), kp1.public().fingerprint());
    }

    #[test]
    fn memoized_digest_matches_recompute() {
        let kp = keypair();
        let pk = kp.public();
        // The memoized digest must equal a fresh hash of the encoding,
        // and the fingerprint must be its first 8 bytes (the pre-memo
        // definition).
        let fresh = sha256(&pk.to_bytes());
        assert_eq!(*pk.digest(), fresh);
        assert_eq!(
            pk.fingerprint(),
            u64::from_be_bytes(fresh[..8].try_into().unwrap())
        );
        // Clones share the memo cell; a reparsed key recomputes to the
        // same digest.
        let clone = pk.clone();
        assert_eq!(clone.digest(), pk.digest());
        let reparsed = PublicKey::from_bytes(&pk.to_bytes()).unwrap();
        assert_eq!(*reparsed.digest(), fresh);
    }

    #[test]
    fn write_to_appends_the_to_bytes_encoding() {
        let kp = keypair();
        let sig = kp.sign(b"frame");
        let mut frame = vec![0xaa];
        kp.public().write_to(&mut frame);
        sig.write_to(&mut frame);
        assert_eq!(
            frame,
            [vec![0xaa], kp.public().to_bytes(), sig.to_bytes()].concat()
        );
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = keypair();
        let sig = kp.sign(b"roundtrip");
        assert_eq!(Signature::from_bytes(&sig.to_bytes()), sig);
    }

    #[test]
    fn deterministic_signing() {
        let kp = keypair();
        assert_eq!(kp.sign(b"det"), kp.sign(b"det"));
    }

    #[test]
    #[should_panic(expected = "cannot hold the signature frame")]
    fn tiny_keys_rejected() {
        // 42 bytes: one short of the frame `sign` must build.
        KeyPair::generate(336, &mut rng());
    }

    #[test]
    fn smallest_generated_key_signs() {
        let kp = KeyPair::generate(338, &mut rng());
        assert!(kp.public().verify(b"m", &kp.sign(b"m")).is_ok());
    }
}
