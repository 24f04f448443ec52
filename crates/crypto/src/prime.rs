//! Probabilistic primality testing and random prime generation.
//!
//! Miller–Rabin with a small-prime pre-sieve. Prime generation is the
//! dominant cost of RSA key generation; the sieve rejects ~80% of odd
//! candidates before any modular exponentiation runs.
//!
//! Two round counts. [`is_prime`] answers for a number of unknown origin
//! and runs the worst-case 40 rounds. [`gen_prime`] tests candidates it
//! drew uniformly itself, for which [`rounds_for_random`] rounds reach
//! the same 2^-80 (12 at 256 bits). Either way the bases are a function
//! of the number under test ([`Witnesses`]), so the key generator is
//! consumed by candidate draws only: changing a round count changes no
//! key, address, golden trace or fingerprint.
//!
//! In front of the counted rounds runs one round to base 2, a filter: it
//! needs no Montgomery context (at 256 bits it allocates nothing), and
//! nearly every composite that gets past the sieve fails it, so only a
//! prime or a rare strong pseudoprime to base 2 pays for a context and a
//! witness stream. Primes always pass it, so it rejects nothing the
//! counted rounds would accept except a composite, and no key moves
//! unless a composite had passed every hash-derived round (below 2^-80).
//! The round counts, and the error bounds behind them, count the
//! hash-derived rounds only: a fixed base is no random round, and the
//! filter is not credited.

use crate::modular::{is_base_two_strong_probable_prime, MontgomeryCtx};
use crate::sha256::Sha256;
use crate::uint::Ubig;
use rand::{Rng, RngCore};

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

/// Miller–Rabin rounds for a number of unknown origin. A round passes a
/// composite with probability at most 1/4 whatever the composite, so 40
/// rounds give the worst-case bound 4^-40 = 2^-80.
const WORST_CASE_ROUNDS: usize = 40;

/// Lower edge in bits → rounds, widest first (see [`rounds_for_random`]).
const AVERAGE_CASE_ROUNDS: [(u32, usize); 12] = [
    (1300, 2),
    (850, 3),
    (650, 4),
    (550, 5),
    (450, 6),
    (400, 7),
    (350, 8),
    (300, 9),
    (250, 12),
    (200, 15),
    (150, 18),
    (100, 27),
];

/// Miller–Rabin rounds that leave a *uniformly drawn* odd `bits`-bit
/// number composite with probability below 2^-80: the average-case
/// estimates of Damgård, Landrock and Pomerance ("Average case error
/// estimates for the strong probable prime test", Math. Comp. 61, 1993;
/// tabulated as Table 4.4 of the Handbook of Applied Cryptography). Most
/// composites have far fewer strong liars than the worst case's quarter
/// of all bases, and a random draw rarely lands on the bad ones. Below
/// 100 bits the estimates say nothing and the worst-case count stands.
///
/// `gen_prime` fixes the second-highest bit of its candidates, halving
/// the set it draws from, which in the worst accounting doubles the
/// error. The 256-bit primes of the default RSA-512 key keep four bits
/// in hand for that (2^-84.6; `tests/properties.rs` evaluates the
/// estimates row by row); a size on a row's lower edge reads 2^-79, as
/// it does under FIPS 186-4 Table C.2, which applies the same estimates
/// to primes drawn from the top of their range. The pre-sieve only
/// removes composites, so it cannot raise the error.
pub fn rounds_for_random(bits: u32) -> usize {
    AVERAGE_CASE_ROUNDS
        .iter()
        .find(|&&(edge, _)| bits >= edge)
        .map_or(WORST_CASE_ROUNDS, |&(_, rounds)| rounds)
}

/// Primality of an arbitrary `n`: trial division, then the worst-case
/// 40 Miller–Rabin rounds, error ≤ 4^-40 per composite.
///
/// A pure function of `n`: the bases are [`Witnesses`] of `n`, not draws
/// from a caller's generator. That is enough today because nothing tests
/// *adversarial* numbers — `PublicKey::from_parts` sees public keys
/// only, and no received value is ever tested for primality. Whoever
/// picks `n` also knows its bases, yet a composite that fools 40
/// hash-derived bases still takes a 2^80 search; draw the bases from a
/// secret generator before pointing this at hostile input all the same.
pub fn is_prime(n: &Ubig) -> bool {
    probable_prime(n, WORST_CASE_ROUNDS, &mut Vec::new())
}

/// Trial division by the primes below 1000, then `rounds` rounds after
/// the base-2 filter; `ws` is the filter's scratch (see [`miller_rabin`]).
fn probable_prime(n: &Ubig, rounds: usize, ws: &mut Vec<u64>) -> bool {
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
    miller_rabin(n, rounds, ws)
}

/// Miller–Rabin on the first `rounds` [`Witnesses`] of `n`, behind the
/// uncounted base-2 filter (module doc), whose scratch at widths other
/// than 4 limbs is `ws`. Every base lies in `[2, n-2]`, so every counted
/// round tests.
///
/// # Panics
/// If `n` is even or below 5. `probable_prime` hands over only numbers
/// without a prime factor below 1000.
fn miller_rabin(n: &Ubig, rounds: usize, ws: &mut Vec<u64>) -> bool {
    assert!(!n.is_even(), "Miller–Rabin needs an odd n, got {n}");
    if !is_base_two_strong_probable_prime(n.limbs(), ws) {
        return false;
    }
    let witnesses = Witnesses::new(n);
    let n_minus_1 = n - &Ubig::one();
    let s = n_minus_1.trailing_zeros();
    let d = n_minus_1 >> s;
    let ctx = MontgomeryCtx::new(n);
    let mut ws = ctx.workspace();
    witnesses
        .take(rounds)
        .all(|a| ctx.is_strong_probable_prime(&mut ws, &a, &d, s))
}

/// The Miller–Rabin bases of `n`: an endless sequence, uniform in
/// `[2, n-2]`, that [`random_below`] draws from SHA-256 in counter mode
/// over `n` — block `i` is `SHA-256(n ‖ i)`, `n` as minimal big-endian
/// bytes and `i` as eight, read as four big-endian words.
pub struct Witnesses {
    /// `n - 3`; a base is `2 + random_below(span)`, so no draw is discarded.
    span: Ubig,
    stream: HashStream,
}

impl Witnesses {
    /// # Panics
    /// If `n < 5`: `[2, n-2]` holds no base worth a round.
    pub fn new(n: &Ubig) -> Self {
        let below_five = n.to_u64().is_some_and(|small| small < 5);
        assert!(!below_five, "no Miller–Rabin base for n = {n}");
        let mut absorbed = Sha256::new();
        absorbed.update(&n.to_be_bytes());
        Witnesses {
            span: n - &Ubig::from(3u64),
            stream: HashStream {
                absorbed,
                block: 0,
                words: [0; 4],
                unread: 0,
            },
        }
    }
}

impl Iterator for Witnesses {
    type Item = Ubig;

    fn next(&mut self) -> Option<Ubig> {
        Some(random_below(&self.span, &mut self.stream) + Ubig::from(2u64))
    }
}

/// SHA-256 in counter mode as a generator of 64-bit words.
struct HashStream {
    /// A hasher that has absorbed the seed bytes; each block clones it.
    absorbed: Sha256,
    block: u64,
    words: [u64; 4],
    /// How many words of the current block are still to be handed out.
    unread: usize,
}

impl RngCore for HashStream {
    fn next_u64(&mut self) -> u64 {
        if self.unread == 0 {
            let mut hasher = self.absorbed.clone();
            hasher.update(&self.block.to_be_bytes());
            let digest = hasher.finalize();
            for (word, bytes) in self.words.iter_mut().zip(digest.chunks_exact(8)) {
                *word = bytes.iter().fold(0, |w, &b| w << 8 | u64::from(b));
            }
            self.block += 1;
            self.unread = self.words.len();
        }
        self.unread -= 1;
        self.words[self.words.len() - 1 - self.unread]
    }

    fn next_u32(&mut self) -> u32 {
        self.next_u64() as u32
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_be_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
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
/// would favour primes after long gaps — each tested with
/// [`rounds_for_random`]`(bits)` rounds; `rng` is consumed by the draws
/// alone. One limb buffer serves every candidate, and one scratch buffer
/// every base-2 round.
///
/// # Panics
/// Panics if `bits < 16`: such tiny primes make no sense for the RSA layer
/// and break the "top two bits" construction.
pub fn gen_prime<R: Rng>(bits: u32, rng: &mut R) -> Ubig {
    assert!(bits >= 16, "prime size too small: {bits} bits");
    let rounds = rounds_for_random(bits);
    let mut limbs = Vec::new();
    let mut ws = Vec::new();
    loop {
        draw_bits(&mut limbs, bits, rng);
        let mut candidate = Ubig::from_limbs(limbs);
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        if probable_prime(&candidate, rounds, &mut ws) {
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

    /// Every counted round tests: the smallest numbers Miller–Rabin
    /// accepts have bases left to draw (for 5 the only one, 2; 3 for 7),
    /// and none is ever 0, 1 or n - 1.
    #[test]
    fn witnesses_stay_inside_two_to_n_minus_two() {
        for n in [5u64, 7, 9, 1009, u64::MAX] {
            let big = Ubig::from(n);
            for a in Witnesses::new(&big).take(200) {
                let a = a.to_u64().expect("below n");
                assert!((2..=n - 2).contains(&a), "base {a} for n = {n}");
            }
        }
        // Tiny odd numbers get past the sieve only in this test.
        assert!(miller_rabin(&Ubig::from(5u64), 40, &mut Vec::new()));
        assert!(miller_rabin(&Ubig::from(7u64), 40, &mut Vec::new()));
        assert!(!miller_rabin(&Ubig::from(9u64), 40, &mut Vec::new()));
    }

    #[test]
    #[should_panic(expected = "odd n")]
    fn miller_rabin_refuses_an_even_number_in_release_too() {
        miller_rabin(&Ubig::from(1000u64), 1, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "no Miller–Rabin base")]
    fn miller_rabin_refuses_three() {
        miller_rabin(&Ubig::from(3u64), 1, &mut Vec::new());
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
