//! Primality testing and random prime generation.
//!
//! Baillie–PSW behind a small-prime pre-sieve. Prime generation is the
//! dominant cost of RSA key generation; the sieve rejects ~80% of odd
//! candidates before any modular arithmetic runs.
//!
//! Baillie–PSW is two tests that fail in different places: a Miller–Rabin
//! round to base 2, then a strong Lucas probable-prime test with
//! Selfridge's parameters (both in [`crate::modular`]). Every prime passes
//! both. No composite is known to pass both: none exists below 2^64,
//! where the test has been checked exhaustively, and in the forty-odd
//! years since Baillie and Wagstaff none has been found above, although
//! the test carries no proven error bound. [`is_prime`] and [`gen_prime`]
//! run the same test; which number is tested changes nothing in it.
//!
//! Nearly every composite that gets past the sieve fails the base-2 round,
//! so the Lucas test runs about once per prime found. At 256 bits both
//! halves work on the stack and allocate nothing.
//!
//! The test draws nothing, so the key generator is consumed by candidate
//! draws only: every key, address, golden trace and fingerprint depends on
//! which candidates are drawn, and the test only has to accept the first
//! prime among them.
//!
//! Nothing points [`is_prime`] at a received value: `PublicKey::from_parts`
//! sees public keys only, and no node tests a number it was sent. A test
//! with fixed parameters would need its own review before it met numbers
//! an adversary picks.

use crate::modular::{is_base_two_strong_probable_prime, is_strong_lucas_probable_prime};
use crate::uint::Ubig;
use rand::Rng;

/// Primes below 1000, used for trial-division sieving.
const SMALL_PRIMES: [u64; 168] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307,
    311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421,
    431, 433, 439, 443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541, 547,
    557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659,
    661, 673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797,
    809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907, 911, 919, 929,
    937, 941, 947, 953, 967, 971, 977, 983, 991, 997,
];

/// Primality of an arbitrary `n`: trial division, then Baillie–PSW
/// (module doc).
pub fn is_prime(n: &Ubig) -> bool {
    probable_prime(n, &mut Vec::new())
}

/// Trial division by the primes below 1000, then Baillie–PSW; `ws` is
/// its scratch at widths other than 4 limbs.
fn probable_prime(n: &Ubig, ws: &mut Vec<u64>) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    // Trial division, as many primes per pass over `n` as multiply into
    // one limb: the pass yields `n mod (p1·p2·…)`, which has the same
    // residue modulo each `p`.
    let mut primes = &SMALL_PRIMES[..];
    while !primes.is_empty() {
        let mut product = 1u64;
        let mut taken = 0;
        while let Some(wider) = primes.get(taken).and_then(|&p| product.checked_mul(p)) {
            product = wider;
            taken += 1;
        }
        let residue = n.rem_limb(product);
        if let Some(&p) = primes[..taken].iter().find(|&&p| residue.is_multiple_of(p)) {
            return n.to_u64() == Some(p);
        }
        primes = &primes[taken..];
    }
    baillie_psw(n, ws)
}

/// The Miller–Rabin round to base 2, then, for the few numbers that pass
/// it, the strong Lucas test; `ws` is their scratch at widths other than
/// 4 limbs.
///
/// # Panics
/// If `n` is even or below 3. `probable_prime` hands over only numbers
/// without a prime factor below 1000.
fn baillie_psw(n: &Ubig, ws: &mut Vec<u64>) -> bool {
    is_base_two_strong_probable_prime(n.limbs(), ws) && is_strong_lucas_probable_prime(n, ws)
}

/// Uniform random value in `[0, bound)`.
///
/// Rejection sampling over the minimal bit width, so the distribution is
/// exactly uniform.
pub fn random_below<R: Rng>(bound: &Ubig, rng: &mut R) -> Ubig {
    assert!(!bound.is_zero(), "empty range");
    let bits = bound.bit_len();
    loop {
        let candidate = random_bits(bits, rng);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Uniform random value with at most `bits` bits.
pub fn random_bits<R: Rng>(bits: u32, rng: &mut R) -> Ubig {
    let mut limbs = Vec::new();
    draw_bits(&mut limbs, bits, rng);
    Ubig::from_limbs(limbs)
}

/// Overwrite `limbs` with `bits` uniform bits, one draw per limb.
fn draw_bits<R: Rng>(limbs: &mut Vec<u64>, bits: u32, rng: &mut R) {
    let n_limbs = bits.div_ceil(64);
    limbs.clear();
    limbs.extend((0..n_limbs).map(|_| rng.gen::<u64>()));
    if let Some(top) = limbs.last_mut() {
        *top &= u64::MAX >> (n_limbs * 64 - bits);
    }
}

/// Generate a random prime of exactly `bits` bits (top two bits set so RSA
/// moduli built from two such primes have exactly `2*bits` bits).
///
/// Candidates are independent uniform draws — not `candidate += 2`, which
/// would favour primes after long gaps — each tested by Baillie–PSW; `rng`
/// is consumed by the draws alone. One limb buffer serves every candidate,
/// and one scratch buffer every test.
///
/// # Panics
/// Panics if `bits < 16`: such tiny primes make no sense for the RSA layer
/// and break the "top two bits" construction.
pub fn gen_prime<R: Rng>(bits: u32, rng: &mut R) -> Ubig {
    assert!(bits >= 16, "prime size too small: {bits} bits");
    let mut limbs = Vec::new();
    let mut ws = Vec::new();
    loop {
        draw_bits(&mut limbs, bits, rng);
        let mut candidate = Ubig::from_limbs(limbs);
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        if probable_prime(&candidate, &mut ws) {
            return candidate;
        }
        limbs = candidate.into_limbs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng() -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(0x5eed)
    }

    #[test]
    fn small_primes_recognized() {
        for p in [2u64, 3, 5, 7, 97, 541, 7919] {
            assert!(is_prime(&Ubig::from(p)), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        for c in [0u64, 1, 4, 6, 9, 15, 100, 561, 1001, 7917] {
            assert!(!is_prime(&Ubig::from(c)), "{c} is composite");
        }
    }

    #[test]
    fn agrees_with_trial_division_below_ten_thousand() {
        // Spans the grouped pre-sieve's three outcomes: `n` is one of the
        // small primes, `n` has one as a proper factor, `n` passes on to
        // Miller–Rabin (every n > 997 here that is prime).
        for n in 0u64..10_000 {
            let expect = n >= 2 && (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
            assert_eq!(is_prime(&Ubig::from(n)), expect, "n={n}");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat pseudoprimes to many bases; Miller-Rabin must catch them.
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&Ubig::from(c)), "{c} is Carmichael");
        }
    }

    #[test]
    fn known_large_primes() {
        // 2^61 - 1 (Mersenne prime)
        let m61 = (Ubig::one() << 61) - Ubig::one();
        assert!(is_prime(&m61));
        // 2^89 - 1 (Mersenne prime, multi-limb)
        let m89 = (Ubig::one() << 89) - Ubig::one();
        assert!(is_prime(&m89));
        // 2^67 - 1 = 193707721 × 761838257287 (famously composite)
        let m67 = (Ubig::one() << 67) - Ubig::one();
        assert!(!is_prime(&m67));
    }

    #[test]
    fn gen_prime_has_exact_bit_length_and_is_odd() {
        let mut r = rng();
        for bits in [64u32, 96, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit set");
            assert!(is_prime(&p));
        }
    }

    /// Past the sieve, below 1009² only primes reach Baillie–PSW; above
    /// it, the products of two primes from 1009 up reach it too.
    #[test]
    fn agrees_with_trial_division_on_every_odd_number_below_two_to_the_twenty() {
        for n in (1u64..1 << 20).step_by(2) {
            let expect = n > 1
                && (3..n)
                    .step_by(2)
                    .take_while(|d| d * d <= n)
                    .all(|d| n % d != 0);
            assert_eq!(is_prime(&Ubig::from(n)), expect, "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "odd n")]
    fn miller_rabin_refuses_an_even_number_in_release_too() {
        baillie_psw(&Ubig::from(1000u64), &mut Vec::new());
    }

    #[test]
    fn random_below_is_in_range() {
        let mut r = rng();
        let bound = Ubig::from(1000u64);
        for _ in 0..200 {
            assert!(random_below(&bound, &mut r) < bound);
        }
    }

    #[test]
    fn random_bits_respects_width() {
        let mut r = rng();
        for bits in [1u32, 7, 63, 64, 65, 130] {
            for _ in 0..20 {
                assert!(random_bits(bits, &mut r).bit_len() <= bits);
            }
        }
        assert_eq!(random_bits(0, &mut r), Ubig::zero());
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_prime_request_panics() {
        gen_prime(8, &mut rng());
    }
}
