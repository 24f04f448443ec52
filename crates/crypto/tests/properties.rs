//! Property-based tests for the arithmetic core.
//!
//! These pin the ring axioms and division invariants that the RSA layer
//! silently depends on; a single wrong carry in the limb code shows up
//! here long before it corrupts a signature.

use manet_crypto::modular::{invmod, modpow};
use manet_crypto::prime::{is_prime, random_below};
use manet_crypto::uint::Ubig;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Strategy: a Ubig up to ~4 limbs from raw bytes.
fn ubig() -> impl Strategy<Value = Ubig> {
    proptest::collection::vec(any::<u8>(), 0..32).prop_map(|b| Ubig::from_be_bytes(&b))
}

/// Strategy: a non-zero Ubig.
fn ubig_nonzero() -> impl Strategy<Value = Ubig> {
    ubig().prop_filter("nonzero", |v| !v.is_zero())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in ubig(), b in ubig()) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associates(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutes(a in ubig(), b in ubig()) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associates(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn mul_distributes(a in ubig(), b in ubig(), c in ubig()) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn add_then_sub_is_identity(a in ubig(), b in ubig()) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn div_rem_invariant(a in ubig(), b in ubig_nonzero()) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn rem_limb_matches_div_rem_limb(a in ubig(), d in 1u64..=u64::MAX) {
        prop_assert_eq!(a.rem_limb(d), a.div_rem_limb(d).1);
    }

    #[test]
    fn bytes_roundtrip(a in ubig()) {
        prop_assert_eq!(Ubig::from_be_bytes(&a.to_be_bytes()), a.clone());
        let padded = a.to_be_bytes_padded(40);
        prop_assert_eq!(padded.len(), 40);
        prop_assert_eq!(Ubig::from_be_bytes(&padded), a);
    }

    #[test]
    fn hex_roundtrip(a in ubig()) {
        prop_assert_eq!(Ubig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn shift_roundtrip(a in ubig(), sh in 0u32..200) {
        prop_assert_eq!((a.clone() << sh) >> sh, a);
    }

    #[test]
    fn shift_is_mul_by_power_of_two(a in ubig(), sh in 0u32..100) {
        let pow = Ubig::one() << sh;
        prop_assert_eq!(a.clone() << sh, &a * &pow);
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(), b in ubig_nonzero()) {
        let g = a.gcd(&b);
        prop_assert!(!g.is_zero());
        prop_assert!(a.div_rem(&g).1.is_zero());
        prop_assert!(b.div_rem(&g).1.is_zero());
    }

    #[test]
    fn modpow_matches_naive(base in ubig(), exp in 0u64..64, modulus in ubig_nonzero()) {
        prop_assume!(modulus > Ubig::one());
        let e = Ubig::from(exp);
        let fast = modpow(&base, &e, &modulus);
        let mut naive = Ubig::one().div_rem(&modulus).1;
        for _ in 0..exp {
            naive = (&naive * &base).div_rem(&modulus).1;
        }
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn modpow_product_rule(base in ubig(), e1 in 0u64..32, e2 in 0u64..32, modulus in ubig_nonzero()) {
        // base^(e1+e2) == base^e1 * base^e2 (mod m)
        prop_assume!(modulus > Ubig::one());
        let lhs = modpow(&base, &Ubig::from(e1 + e2), &modulus);
        let a = modpow(&base, &Ubig::from(e1), &modulus);
        let b = modpow(&base, &Ubig::from(e2), &modulus);
        prop_assert_eq!(lhs, (&a * &b).div_rem(&modulus).1);
    }

    #[test]
    fn invmod_verifies_when_present(a in ubig_nonzero(), m in ubig_nonzero()) {
        prop_assume!(m > Ubig::one());
        if let Some(inv) = invmod(&a, &m) {
            prop_assert_eq!((&a * &inv).div_rem(&m).1, Ubig::one());
            prop_assert!(inv < m);
        } else {
            // No inverse means gcd(a, m) != 1.
            prop_assert!(!a.gcd(&m).is_one());
        }
    }

    #[test]
    fn ordering_consistent_with_subtraction(a in ubig(), b in ubig()) {
        if a >= b {
            let d = &a - &b;
            prop_assert_eq!(&d + &b, a);
        } else {
            let d = &b - &a;
            prop_assert!(!d.is_zero());
        }
    }
}

/// Division-based square-and-multiply: shares nothing with the Montgomery
/// kernel, so it is the reference the kernel is checked against.
fn naive_modpow(base: &Ubig, exp: &Ubig, n: &Ubig) -> Ubig {
    let mut result = Ubig::one().div_rem(n).1;
    let mut b = base.div_rem(n).1;
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = (&result * &b).div_rem(n).1;
        }
        b = (&b * &b).div_rem(n).1;
    }
    result
}

/// Strategy: an odd modulus > 1 of exactly `limbs` limbs, half of them
/// with the top bit set — where the kernel's intermediate value below
/// `2n` needs its carry limb.
fn odd_modulus(limbs: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Ubig> {
    (
        proptest::collection::vec(any::<u64>(), limbs),
        any::<bool>(),
    )
        .prop_map(|(mut limbs, top_bit)| {
            limbs[0] |= 1;
            let top = limbs.len() - 1;
            limbs[top] |= if top_bit { 1 << 63 } else { 2 };
            Ubig::from_limbs(limbs)
        })
}

/// The kernel against the reference for every base shape (`≥ n`, reduced,
/// `n-1`, 0, 1) and exponents on both sides of the sparse/windowed switch.
fn assert_kernel_matches_reference(n: &Ubig, wide: &Ubig, dense: &Ubig) {
    let bases = [
        wide.clone(),
        wide.div_rem(n).1,
        n - &Ubig::one(),
        Ubig::zero(),
        Ubig::one(),
    ];
    let exps = [
        Ubig::zero(),
        Ubig::one(),
        Ubig::from(2u64),
        Ubig::from(0b1111u64),  // four set bits: last sparse case
        Ubig::from(0b11111u64), // five: first windowed case
        Ubig::from(65537u64),
        dense.clone(),
    ];
    for base in &bases {
        for exp in &exps {
            assert_eq!(
                modpow(base, exp, n),
                naive_modpow(base, exp, n),
                "n={n:?} base={base:?} exp={exp:?}"
            );
        }
    }
}

#[test]
fn kernel_matches_reference_on_extreme_moduli() {
    let dense = Ubig::from_hex("f00dfeedfacecafebeefdeadc0de1234567").unwrap();
    for k in 1..=33u32 {
        // 2^(64k) - 1: every limb all-ones; 2^(64k-1) + 1: top bit only.
        let all_ones = (Ubig::one() << (64 * k)) - Ubig::one();
        let top_bit = (Ubig::one() << (64 * k - 1)) + Ubig::one();
        let wide = (Ubig::one() << (64 * k + 17)) - Ubig::from(3u64);
        assert_kernel_matches_reference(&all_ones, &wide, &dense);
        assert_kernel_matches_reference(&top_bit, &wide, &dense);
    }
}

proptest! {
    // Heavier cases get fewer iterations.
    #![proptest_config(ProptestConfig::with_cases(24))]

    // 1..=33 limbs: one past the 2048-bit size the exhibits reach.
    #[test]
    fn kernel_modpow_matches_division_reference(
        n in odd_modulus(1..=33),
        wide in proptest::collection::vec(any::<u64>(), 0..40),
        dense in proptest::collection::vec(any::<u64>(), 1..=4),
    ) {
        assert_kernel_matches_reference(&n, &Ubig::from_limbs(wide), &Ubig::from_limbs(dense));
    }

    // Four limbs is the one width with its own instantiation of the
    // kernel (the primes of an RSA-512 key), and the draw above lands on
    // it once in 33; `kernel_matches_reference_on_extreme_moduli` adds
    // 2^256 - 1 and 2^255 + 1.
    #[test]
    fn four_limb_kernel_matches_division_reference(
        n in odd_modulus(4..=4),
        wide in proptest::collection::vec(any::<u64>(), 0..10),
        dense in proptest::collection::vec(any::<u64>(), 1..=4),
    ) {
        assert_kernel_matches_reference(&n, &Ubig::from_limbs(wide), &Ubig::from_limbs(dense));
    }

    #[test]
    fn random_below_uniform_support(seed in any::<u64>()) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let bound = Ubig::from(17u64);
        let v = random_below(&bound, &mut rng);
        prop_assert!(v < bound);
    }

    #[test]
    fn fermat_holds_for_generated_primes(seed in any::<u64>()) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let p = manet_crypto::prime::gen_prime(96, &mut rng);
        prop_assert!(is_prime(&p));
        let a = Ubig::from(0x1234_5678u64);
        let e = &p - &Ubig::one();
        prop_assert_eq!(modpow(&a, &e, &p), Ubig::one());
    }

    #[test]
    fn sign_verify_tamper_rejected(msg in proptest::collection::vec(any::<u8>(), 0..128), flip in 0usize..64) {
        let mut rng = ChaCha12Rng::seed_from_u64(0xabcdef);
        let kp = manet_crypto::KeyPair::generate(512, &mut rng);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public().verify(&msg, &sig).is_ok());
        let mut bytes = sig.to_bytes();
        if !bytes.is_empty() {
            let idx = flip % bytes.len();
            bytes[idx] ^= 1;
            let bad = manet_crypto::Signature::from_bytes(&bytes);
            prop_assert!(kp.public().verify(&msg, &bad).is_err());
        }
    }

    #[test]
    fn sha256_incremental_any_split(data in proptest::collection::vec(any::<u8>(), 0..512), split_frac in 0.0f64..1.0) {
        let split = (data.len() as f64 * split_frac) as usize;
        let mut h = manet_crypto::Sha256::new();
        h.update(&data[..split]).update(&data[split..]);
        prop_assert_eq!(h.finalize(), manet_crypto::sha256(&data));
    }
}

/// The verify cache must be observationally invisible: for any input —
/// valid, corrupted-signature, or wrong-key — the cached pipeline returns
/// exactly the verdict direct verification returns, on first sight and on
/// every repeat, across evictions. A "poisoned" entry (a cached verdict
/// served for material that would verify differently) is impossible
/// because the key digests the full `(pk, payload, sig)` triple.
mod verify_cache_agreement {
    use manet_crypto::{KeyPair, Signature, VerifyCache};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;
    use std::sync::OnceLock;

    /// Key generation is the expensive part; share two fixed pairs
    /// across all proptest cases.
    fn keys() -> &'static (KeyPair, KeyPair) {
        static KEYS: OnceLock<(KeyPair, KeyPair)> = OnceLock::new();
        KEYS.get_or_init(|| {
            let mut rng = ChaCha12Rng::seed_from_u64(0x5eed);
            (
                KeyPair::generate(512, &mut rng),
                KeyPair::generate(512, &mut rng),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cached_and_uncached_verdicts_agree(
            msg in proptest::collection::vec(any::<u8>(), 0..96),
            flip in 0usize..64,
            // 0 = valid, 1 = corrupted signature, 2 = wrong key
            case in 0u8..3,
            capacity in 1usize..16,
        ) {
            let (kp, other) = keys();
            let sig = kp.sign(&msg);
            let (pk, sig) = match case {
                0 => (kp.public(), sig),
                1 => {
                    let mut bytes = sig.to_bytes();
                    let idx = flip % bytes.len();
                    bytes[idx] ^= 1;
                    (kp.public(), Signature::from_bytes(&bytes))
                }
                _ => (other.public(), sig),
            };
            let direct = pk.verify(&msg, &sig).is_ok();
            let mut cache = VerifyCache::new(capacity);
            let (first, _) = cache.verify(pk, &msg, &sig);
            let (repeat, _) = cache.verify(pk, &msg, &sig);
            // First sight and cached repeat must both match direct verify.
            prop_assert_eq!(first, direct);
            prop_assert_eq!(repeat, direct);
        }

        #[test]
        fn interleaved_triples_never_cross_contaminate(
            msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 2..6),
            order in proptest::collection::vec(0usize..12, 4..24),
        ) {
            let (kp, other) = keys();
            // A tiny cache forces constant eviction while valid, forged,
            // and wrong-key verdicts for the same payloads interleave.
            let mut cache = VerifyCache::new(2);
            let signed: Vec<_> = msgs.iter().map(|m| kp.sign(m)).collect();
            for &pick in &order {
                let (i, variant) = (pick % msgs.len(), pick % 3);
                let (pk, sig) = match variant {
                    0 => (kp.public(), signed[i].clone()),
                    1 => {
                        let mut b = signed[i].to_bytes();
                        b[0] ^= 1;
                        (kp.public(), Signature::from_bytes(&b))
                    }
                    _ => (other.public(), signed[i].clone()),
                };
                let direct = pk.verify(&msgs[i], &sig).is_ok();
                let (cached, _) = cache.verify(pk, &msgs[i], &sig);
                prop_assert_eq!(cached, direct);
                prop_assert_eq!(direct, variant == 0);
            }
        }
    }
}

/// What `prime.rs` promises since the witnesses stopped coming from the
/// key generator: `gen_prime` tests its own uniform draws with the
/// average-case round count, `is_prime` tests anything with 40, and the
/// bases of either are a function of the number alone.
mod primality_contract {
    use manet_crypto::modular::modpow;
    use manet_crypto::prime::{gen_prime, is_prime, random_below, rounds_for_random, Witnesses};
    use manet_crypto::sha256::Sha256;
    use manet_crypto::uint::Ubig;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// Textbook Miller–Rabin on the division-based `modpow`, bases from
    /// `rng`: shares no code with `prime.rs` beyond `Ubig` itself.
    fn passes_independent_rounds(n: &Ubig, rounds: usize, rng: &mut ChaCha12Rng) -> bool {
        let one = Ubig::one();
        let n_minus_1 = n - &one;
        let s = n_minus_1.trailing_zeros();
        let d = n_minus_1.clone() >> s;
        (0..rounds).all(|_| {
            let a = random_below(&(n - &Ubig::from(3u64)), rng) + Ubig::from(2u64);
            let mut x = modpow(&a, &d, n);
            if x == one || x == n_minus_1 {
                return true;
            }
            (1..s).any(|_| {
                x = modpow(&x, &Ubig::from(2u64), n);
                x == n_minus_1
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The prime sizes of the 338-, 384-, 512-, 768- and 1024-bit
        /// moduli the workspace generates: 18, 18, 12, 8 and 6 rounds.
        #[test]
        fn generated_primes_pass_forty_independent_rounds_and_their_products_never(
            seed in any::<u64>(),
        ) {
            let mut keys = ChaCha12Rng::seed_from_u64(seed);
            let mut bases = ChaCha12Rng::seed_from_u64(!seed);
            for bits in [169u32, 192, 256, 384, 512] {
                let p = gen_prime(bits, &mut keys);
                let q = gen_prime(bits, &mut keys);
                prop_assert_eq!(p.bit_len(), bits);
                prop_assert!(passes_independent_rounds(&p, 40, &mut bases), "{} bits: {}", bits, p);
                prop_assert!(passes_independent_rounds(&q, 40, &mut bases), "{} bits: {}", bits, q);
                prop_assert!(is_prime(&p) && is_prime(&q));
                let n = &p * &q;
                prop_assert!(!passes_independent_rounds(&n, 40, &mut bases));
                prop_assert!(!is_prime(&n));
            }
        }
    }

    /// log2 of the best Damgård–Landrock–Pomerance estimate that applies
    /// to `p(k, t)`, the chance that a uniform odd `k`-bit number which
    /// passed `t` rounds is composite (HAC Fact 4.48 ii–iv); `None` where
    /// none applies.
    fn dlp_log2_bound(k: f64, t: f64) -> Option<f64> {
        let mut bounds = Vec::new();
        if (t == 2.0 && k >= 88.0) || (k >= 21.0 && (3.0..=k / 9.0).contains(&t)) {
            // k^(3/2) · 2^t · t^(-1/2) · 4^(2 - sqrt(tk))
            bounds.push(1.5 * k.log2() + t - 0.5 * t.log2() + 2.0 * (2.0 - (t * k).sqrt()));
        }
        // (1/7) · k^(15/4) · 2^(-k/2 - 2t)
        let middle = 3.75 * k.log2() - 7f64.log2() - k / 2.0 - 2.0 * t;
        if k >= 21.0 && t >= k / 9.0 {
            // (7/20) · k · 2^(-5t) + the one above + 12 · k · 2^(-k/4 - 3t)
            let terms = [
                (0.35 * k).log2() - 5.0 * t,
                middle,
                (12.0 * k).log2() - k / 4.0 - 3.0 * t,
            ];
            bounds.push(terms.iter().map(|l| l.exp2()).sum::<f64>().log2());
        }
        if k >= 21.0 && t >= k / 4.0 {
            bounds.push(middle);
        }
        bounds.into_iter().reduce(f64::min)
    }

    #[test]
    fn round_table_is_monotone_and_every_row_meets_the_dlp_bound_at_its_lower_edge() {
        let counts: Vec<usize> = (16..=4096).map(rounds_for_random).collect();
        assert!(
            counts.windows(2).all(|w| w[0] >= w[1]),
            "more bits, no more rounds"
        );
        assert_eq!(rounds_for_random(99), 40, "below the estimates: worst case");
        assert_eq!(rounds_for_random(256), 12);
        // A row's lower edge is where its count first appears; the error
        // falls as `k` grows, so the edge is the row's worst point.
        let edges = (100..=4096u32).filter(|&k| rounds_for_random(k) != rounds_for_random(k - 1));
        let mut rows = 0;
        for k in edges {
            let t = rounds_for_random(k);
            let log2 = dlp_log2_bound(f64::from(k), t as f64);
            assert!(
                log2.is_some_and(|l| l <= -80.0),
                "{k} bits, {t} rounds: 2^{log2:?}"
            );
            // One round fewer would not do: the table is not padded.
            let fewer = dlp_log2_bound(f64::from(k), t as f64 - 1.0);
            assert!(
                fewer.is_none_or(|l| l > -80.0),
                "{k} bits, {} rounds: 2^{fewer:?}",
                t - 1
            );
            rows += 1;
        }
        assert_eq!(rows, 12);
        // `gen_prime` fixes the second-highest bit, which can double the
        // error; the default RSA-512 key's 256-bit primes keep bits in
        // hand for that. (`p(k, t)` falls as `k` grows but the closed
        // forms change regime inside a row, so a size takes the best
        // estimate of any smaller size that shares its count.)
        let inherited = |k: u32| {
            let t = rounds_for_random(k);
            let row = (100..=k).rev().take_while(|&j| rounds_for_random(j) == t);
            row.filter_map(|j| dlp_log2_bound(f64::from(j), t as f64))
                .reduce(f64::min)
        };
        for k in [169u32, 192, 256, 384, 512] {
            assert!(
                inherited(k).is_some_and(|l| l <= -80.0),
                "{k} bits: 2^{:?}",
                inherited(k)
            );
        }
        assert!(
            inherited(256).is_some_and(|l| l <= -84.0),
            "2^{:?}",
            inherited(256)
        );
    }

    #[test]
    fn is_prime_is_a_function_of_its_argument_and_keeps_forty_rounds() {
        let m67 = (Ubig::one() << 67) - Ubig::one();
        let m89 = (Ubig::one() << 89) - Ubig::one();
        let carmichael = [561u64, 1105, 1729, 41041, 825265, 321197185, 9746347772161];
        for _ in 0..2 {
            assert!(is_prime(&m89));
            assert!(!is_prime(&m67), "2^67 - 1 = 193707721 × 761838257287");
            for c in carmichael {
                assert!(!is_prime(&Ubig::from(c)), "{c} is Carmichael");
            }
        }
        // 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7 —
        // few fixed rounds would pass it — with factors 151 · 751 · 28351
        // the sieve sees; 3825123056546413051 (= 149491 · 747451 ·
        // 34233211, strong pseudoprime to the nine primes up to 23) gets
        // past the sieve and must fall to the 40 derived bases.
        assert!(!is_prime(&Ubig::from(3215031751u64)));
        assert!(!is_prime(&Ubig::from(3825123056546413051u64)));
    }

    /// Known answer: the bases of 2^89 - 1. A change here re-keys
    /// nothing (bases decide verdicts, not draws) but does change which
    /// composites a given round count would let through, so it is pinned.
    #[test]
    fn witness_stream_known_answer() {
        let m89 = (Ubig::one() << 89) - Ubig::one();
        let bases: Vec<Ubig> = Witnesses::new(&m89).take(64).collect();
        let mut digest = Sha256::new();
        for a in &bases {
            assert!(*a >= Ubig::from(2u64) && *a < &m89 - &Ubig::one());
            digest.update(&a.to_be_bytes_padded(12));
        }
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let first: Vec<String> = bases[..4].iter().map(Ubig::to_hex).collect();
        assert_eq!(first, FIRST_BASES);
        assert_eq!(hex(&digest.finalize()), ALL_64_SHA256);
    }

    const FIRST_BASES: [&str; 4] = [
        "1bc0a30de3e63731552bdec",
        "2ad4ed1860b869b5e7daa8",
        "1648447042c24ba3742765f",
        "158f9e46eed9bcc695a6a7e",
    ];
    const ALL_64_SHA256: &str = "c1cab5ad73e7c02aab40ff155e9a43d199ed1801813660ec7fb663f80c19889c";
}
