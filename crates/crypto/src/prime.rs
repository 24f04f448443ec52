//! Probabilistic primality testing and random prime generation.
//!
//! Miller–Rabin with a small-prime pre-sieve. Prime generation is the
//! dominant cost of RSA key generation; the sieve rejects ~80% of odd
//! candidates before any modular exponentiation runs.

use crate::modular::MontgomeryCtx;
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

/// Miller–Rabin rounds. Each round passes a composite with probability
/// at most 1/4 whatever the composite, so 40 rounds give the worst-case
/// bound 4^-40 = 2^-80 (for the random candidates `gen_prime` draws the
/// error is far smaller and fewer rounds would do). The count is pinned
/// all the same: every round draws its base from the key RNG, so
/// changing it changes every generated key, and with the keys every
/// address, golden trace and fingerprint.
const MR_ROUNDS: usize = 40;

/// Probabilistic primality test.
///
/// Deterministically correct for all `n < 3,317,044,064,679,887,385,961,981`
/// when the first 13 prime bases are used; for larger `n` the error
/// probability is ≤ 4^-rounds per composite.
pub fn is_prime<R: Rng>(n: &Ubig, rng: &mut R) -> bool {
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
    miller_rabin(n, MR_ROUNDS, rng)
}

/// Miller–Rabin with `rounds` random bases. `n` must be odd and > 3.
fn miller_rabin<R: Rng>(n: &Ubig, rounds: usize, rng: &mut R) -> bool {
    debug_assert!(!n.is_even());
    let n_minus_1 = n - &Ubig::one();
    let s = n_minus_1.trailing_zeros();
    let d = n_minus_1.clone() >> s;
    let ctx = MontgomeryCtx::new(n);
    let mut ws = ctx.workspace();
    for _ in 0..rounds {
        // base in [2, n-2]
        let a = random_below(&n_minus_1, rng);
        if a.bit_len() < 2 {
            continue;
        }
        if !ctx.is_strong_probable_prime(&mut ws, &a, &d, s) {
            return false;
        }
    }
    true
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
    if bits == 0 {
        return Ubig::zero();
    }
    let limbs = bits.div_ceil(64) as usize;
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
    let extra = (limbs as u32) * 64 - bits;
    if extra > 0 {
        let last = limbs - 1;
        v[last] &= u64::MAX >> extra;
    }
    Ubig::from_limbs(v)
}

/// Generate a random prime of exactly `bits` bits (top two bits set so RSA
/// moduli built from two such primes have exactly `2*bits` bits).
///
/// # Panics
/// Panics if `bits < 16`: such tiny primes make no sense for the RSA layer
/// and break the "top two bits" construction.
pub fn gen_prime<R: Rng>(bits: u32, rng: &mut R) -> Ubig {
    assert!(bits >= 16, "prime size too small: {bits} bits");
    loop {
        let mut candidate = random_bits(bits, rng);
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        if is_prime(&candidate, rng) {
            return candidate;
        }
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
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 541, 7919] {
            assert!(is_prime(&Ubig::from(p), &mut r), "{p} is prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 6, 9, 15, 100, 561, 1001, 7917] {
            assert!(!is_prime(&Ubig::from(c), &mut r), "{c} is composite");
        }
    }

    #[test]
    fn agrees_with_trial_division_below_ten_thousand() {
        // Spans the grouped pre-sieve's three outcomes: `n` is one of the
        // small primes, `n` has one as a proper factor, `n` passes on to
        // Miller–Rabin (every n > 997 here that is prime).
        let mut r = rng();
        for n in 0u64..10_000 {
            let expect = n >= 2 && (2..n).take_while(|d| d * d <= n).all(|d| n % d != 0);
            assert_eq!(is_prime(&Ubig::from(n), &mut r), expect, "n={n}");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Fermat pseudoprimes to many bases; Miller-Rabin must catch them.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(&Ubig::from(c), &mut r), "{c} is Carmichael");
        }
    }

    #[test]
    fn known_large_primes() {
        let mut r = rng();
        // 2^61 - 1 (Mersenne prime)
        let m61 = (Ubig::one() << 61) - Ubig::one();
        assert!(is_prime(&m61, &mut r));
        // 2^89 - 1 (Mersenne prime, multi-limb)
        let m89 = (Ubig::one() << 89) - Ubig::one();
        assert!(is_prime(&m89, &mut r));
        // 2^67 - 1 = 193707721 × 761838257287 (famously composite)
        let m67 = (Ubig::one() << 67) - Ubig::one();
        assert!(!is_prime(&m67, &mut r));
    }

    #[test]
    fn gen_prime_has_exact_bit_length_and_is_odd() {
        let mut r = rng();
        for bits in [64u32, 96, 128] {
            let p = gen_prime(bits, &mut r);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(p.bit(bits - 2), "second-highest bit set");
            assert!(is_prime(&p, &mut r));
        }
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
