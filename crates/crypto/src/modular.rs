//! Modular arithmetic: Montgomery-form exponentiation and modular inverse.
//!
//! RSA and Miller–Rabin spend essentially all of their time in `modpow`,
//! so that path is one in-place kernel: a Montgomery multiply that
//! interleaves multiplication and reduction limb by limb and ends in the
//! conditional subtract ([`mul_reduce`]), under a fixed 4-bit window
//! whose table and two alternating accumulators are carved out of one
//! workspace buffer. The kernel body is compiled twice — over `[u64; 4]`
//! for the 256-bit primes of an RSA-512 key, over slices for every other
//! width — and [`mont_mul`] picks. Key generation's composites are
//! rejected before any of that exists: a Miller–Rabin round to base 2
//! ([`is_base_two_strong_probable_prime`]) needs only the kernel, a
//! doubling and three lanes of scratch. The remaining operations
//! (inverse, plain reduction) are cold and use the generic [`Ubig`]
//! division.

use crate::limb::{adc, mac, sbb, LIMB_BITS};
use crate::uint::Ubig;

/// Window table size: `base^1 ..= base^15`, one per non-zero 4-bit digit.
const TABLE_ENTRIES: usize = 15;

/// The width the kernel is also compiled at with its loops unrolled and
/// its limbs in registers: the simulator's default RSA-512 keys make
/// every Miller–Rabin round of key generation and both CRT halves of
/// every signature a 4-limb exponentiation. Measured per multiply
/// (docs/ARCHITECTURE.md has the table): 30 → 17 ns at 4 limbs. Fixing
/// 8 limbs would gain 18 % there, but only RSA-512 verifies run at that
/// width (2.5 µs each, under a hundred per benchmark rep); at 16 and 32
/// limbs it gains under 5 %. So no other width is instantiated.
const FIXED_LIMBS: usize = 4;

/// The kernel: `out = a·b·R^-1 mod n`, fully reduced, for `k`-limb
/// operands (`a`, `b` below `n`; `R = 2^(64k)`). Multiplication and
/// reduction are interleaved limb by limb (CIOS), with the two passes of
/// each outer step fused into one walk over `out`; the limb above `out`
/// lives in `top`, so the product needs no scratch, and the final
/// conditional subtract happens in place. Always inlined: a caller that
/// passes arrays gets the loops unrolled for that width.
#[inline(always)]
fn mul_reduce(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n_prime: u64) {
    let k = n.len();
    assert!(out.len() == k && a.len() == k && b.len() == k);
    out.fill(0);
    let mut top = 0;
    for &b_i in b {
        let (lo, mut c_mul) = mac(a[0], b_i, out[0], 0);
        // m makes the low limb of out + a·b_i + m·n vanish.
        let m = lo.wrapping_mul(n_prime);
        let (zero, mut c_red) = mac(m, n[0], lo, 0);
        debug_assert_eq!(zero, 0);
        for j in 1..k {
            let (lo, hi) = mac(a[j], b_i, out[j], c_mul);
            c_mul = hi;
            let (lo, hi) = mac(m, n[j], lo, c_red);
            c_red = hi;
            out[j - 1] = lo;
        }
        (out[k - 1], top) = adc(top, c_mul, c_red);
    }
    reduce_once(out, top, n);
}

/// `top·R + out`, a value below `2n`, becomes `out` fully reduced:
/// subtract `n` once if the value is ≥ `n`. With `top` set the borrow
/// out of the low limbs cancels it.
#[inline(always)]
fn reduce_once(out: &mut [u64], top: u64, n: &[u64]) {
    let below_n = top == 0 && out.iter().rev().lt(n.iter().rev());
    if !below_n {
        let mut borrow = 0;
        for (o, &n_j) in out.iter_mut().zip(n) {
            (*o, borrow) = sbb(*o, n_j, borrow);
        }
        debug_assert_eq!(borrow, top);
    }
}

type Fixed = [u64; FIXED_LIMBS];

/// [`mul_reduce`] with every length a constant: loops unrolled, no
/// bounds checks, `out` in registers.
fn mul_reduce_fixed(out: &mut Fixed, a: &Fixed, b: &Fixed, n: &Fixed, n_prime: u64) {
    mul_reduce(out, a, b, n, n_prime);
}

/// [`mul_reduce`] at whatever width the modulus has.
fn mul_reduce_slices(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n_prime: u64) {
    mul_reduce(out, a, b, n, n_prime);
}

/// `out = a·b·R^-1 mod n` through the kernel instantiation for the
/// modulus' width.
fn mont_mul(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n_prime: u64) {
    if let (Ok(out), Ok(a), Ok(b), Ok(n)) = (
        <&mut Fixed>::try_from(&mut *out),
        <&Fixed>::try_from(a),
        <&Fixed>::try_from(b),
        <&Fixed>::try_from(n),
    ) {
        mul_reduce_fixed(out, a, b, n, n_prime);
    } else {
        mul_reduce_slices(out, a, b, n, n_prime);
    }
}

/// `x = 2x mod n` for `x < n`: a shift and a conditional subtract.
fn double_mod(x: &mut [u64], n: &[u64]) {
    let mut top = 0;
    for w in x.iter_mut() {
        (*w, top) = (*w << 1 | top, *w >> 63);
    }
    reduce_once(x, top, n);
}

/// `x ≡ -1` for Montgomery-form `x`, i.e. `x + (R mod n) = n`.
fn is_minus_one(x: &[u64], one_m: &[u64], n: &[u64]) -> bool {
    let mut carry = 0;
    for ((&x_j, &one_j), &n_j) in x.iter().zip(one_m).zip(n) {
        let (sum, c) = adc(x_j, one_j, carry);
        if sum != n_j {
            return false;
        }
        carry = c;
    }
    carry == 0
}

/// One Miller–Rabin round to base 2 for the odd `n ≥ 3` given by its
/// normalized limbs: the verdict of [`MontgomeryCtx::is_strong_probable_prime`]
/// with `a = 2`, without the context. In Montgomery form, multiplying by
/// 2 is [`double_mod`], so `2^d` is squarings and doublings: no `R²`, no
/// window table, no `Ubig`. At the fixed width the three lanes (`R mod
/// n`, the running value, the spare) live on the stack; other widths
/// carve them out of `ws`, which a prime search keeps across candidates.
pub(crate) fn is_base_two_strong_probable_prime(n: &[u64], ws: &mut Vec<u64>) -> bool {
    let k = n.len();
    if k == FIXED_LIMBS {
        base_two_round(n, &mut [0; 3 * FIXED_LIMBS])
    } else {
        ws.clear();
        ws.resize(3 * k, 0);
        base_two_round(n, ws)
    }
}

/// [`is_base_two_strong_probable_prime`] over `3k` limbs of scratch.
fn base_two_round(n: &[u64], lanes: &mut [u64]) -> bool {
    let k = n.len();
    assert!(
        k > 0 && n[0] & 1 == 1 && n[k - 1] != 0 && (k > 1 || n[0] >= 3),
        "base-2 round needs a normalized odd n >= 3"
    );
    let (one_m, rest) = lanes.split_at_mut(k);
    let (mut acc, mut spare) = rest.split_at_mut(k);
    let n_prime = inv_limb_neg(n[0]);
    let bits = k as u32 * LIMB_BITS - n[k - 1].leading_zeros();
    let bit = |i: u32| n[(i / LIMB_BITS) as usize] >> (i % LIMB_BITS) & 1 == 1;
    // R mod n: 2^(bits-1) is below n; double it up to R = 2^(64k). One
    // doubling, R - n, when the top bit of the top limb is set.
    one_m.fill(0);
    one_m[((bits - 1) / LIMB_BITS) as usize] = 1 << ((bits - 1) % LIMB_BITS);
    for _ in bits - 1..k as u32 * LIMB_BITS {
        double_mod(one_m, n);
    }
    // n - 1 = d·2^s. n is odd, so n - 1 shares n's bits above bit 0: d
    // is n's bits from s up, and its top bit is n's.
    let mut s = 1;
    while !bit(s) {
        s += 1;
    }
    // 2^d left to right, starting at d's top bit: 2.
    acc.copy_from_slice(one_m);
    double_mod(acc, n);
    for i in (s..bits - 1).rev() {
        mont_mul(spare, acc, acc, n, n_prime);
        core::mem::swap(&mut acc, &mut spare);
        if bit(i) {
            double_mod(acc, n);
        }
    }
    if *acc == *one_m || is_minus_one(acc, one_m, n) {
        return true;
    }
    for _ in 1..s {
        mont_mul(spare, acc, acc, n, n_prime);
        core::mem::swap(&mut acc, &mut spare);
        if is_minus_one(acc, one_m, n) {
            return true;
        }
    }
    false
}

/// Precomputed state for repeated arithmetic modulo an odd modulus `n`
/// of `k` limbs. Values in Montgomery form are `k`-limb slices holding
/// `a·R mod n` (`R = 2^(64k)`), always fully reduced.
pub struct MontgomeryCtx {
    /// The (odd) modulus.
    n: Ubig,
    /// `-n^{-1} mod 2^64`, the REDC constant.
    n_prime: u64,
    /// `R^2 mod n`; converts into Montgomery form.
    r2: Vec<u64>,
    /// `1` in Montgomery form (`R mod n`).
    one_m: Vec<u64>,
}

/// One exponentiation's buffers, carved out of a [`MontgomeryCtx::workspace`].
struct Lanes<'w> {
    /// `base^1 ..= base^15` in Montgomery form, `k` limbs each.
    table: &'w mut [u64],
    /// The running value.
    acc: &'w mut [u64],
    /// Where the next product is written; then it and `acc` trade places,
    /// so no multiply copies its result.
    spare: &'w mut [u64],
}

impl MontgomeryCtx {
    /// Build a context for odd modulus `n > 1`.
    ///
    /// # Panics
    /// Panics if `n` is even or `< 2` — Montgomery reduction requires
    /// `gcd(n, 2^64) = 1`.
    pub fn new(n: &Ubig) -> Self {
        assert!(!n.is_even(), "Montgomery modulus must be odd");
        assert!(*n > Ubig::one(), "modulus must exceed 1");
        let k = n.limbs().len();
        // R^2 mod n via shifting: R2 = 2^(128k) mod n.
        let mut r2 = (Ubig::one() << (2 * k as u32 * LIMB_BITS))
            .div_rem(n)
            .1
            .limbs()
            .to_vec();
        r2.resize(k, 0);
        let mut ctx = MontgomeryCtx {
            n: n.clone(),
            n_prime: inv_limb_neg(n.limbs()[0]),
            r2,
            one_m: Vec::new(),
        };
        // R mod n = R^2 · 1 · R^-1.
        let mut one = vec![0; k];
        one[0] = 1;
        let mut one_m = vec![0; k];
        ctx.mul(&mut one_m, &ctx.r2, &one);
        ctx.one_m = one_m;
        ctx
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// A zeroed scratch buffer for one exponentiation at a time: window
    /// table and two accumulators. `modpow` makes one per call;
    /// [`Self::is_strong_probable_prime`] takes the caller's, so
    /// Miller–Rabin reuses one across its rounds.
    pub fn workspace(&self) -> Vec<u64> {
        vec![0; self.workspace_len()]
    }

    fn workspace_len(&self) -> usize {
        (TABLE_ENTRIES + 2) * self.n.limbs().len()
    }

    fn lanes<'w>(&self, ws: &'w mut [u64]) -> Lanes<'w> {
        let k = self.n.limbs().len();
        assert_eq!(ws.len(), self.workspace_len(), "foreign workspace");
        let (table, rest) = ws.split_at_mut(TABLE_ENTRIES * k);
        let (acc, spare) = rest.split_at_mut(k);
        Lanes { table, acc, spare }
    }

    /// `out = a·b·R^-1 mod n` for reduced `k`-limb `a` and `b`.
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        mont_mul(out, a, b, self.n.limbs(), self.n_prime);
    }

    /// `acc = acc·table[d-1]·R^-1 mod n`, i.e. `acc·base^d`.
    fn mul_assign(&self, l: &mut Lanes, d: usize) {
        let k = self.n.limbs().len();
        self.mul(l.spare, l.acc, &l.table[(d - 1) * k..d * k]);
        core::mem::swap(&mut l.acc, &mut l.spare);
    }

    /// `acc = acc²·R^-1 mod n` — the hot operation of modpow (the ladder
    /// squares every exponent bit but multiplies only on set digits).
    fn sqr_assign(&self, l: &mut Lanes) {
        self.mul(l.spare, l.acc, l.acc);
        core::mem::swap(&mut l.acc, &mut l.spare);
    }

    /// `base^exp` in Montgomery form, left in `l.acc`. Fixed 4-bit
    /// window, with a square-and-multiply fast path for sparse exponents.
    fn pow_mont(&self, l: &mut Lanes, base: &Ubig, exp: &Ubig) {
        let k = self.n.limbs().len();
        if exp.is_zero() {
            l.acc.copy_from_slice(&self.one_m);
            return;
        }
        let reduced;
        let base = if *base < self.n {
            base
        } else {
            reduced = base.div_rem(&self.n).1;
            &reduced
        };
        // base in Montgomery form: the starting value and table[0].
        l.spare.fill(0);
        l.spare[..base.limbs().len()].copy_from_slice(base.limbs());
        self.mul(l.acc, &self.r2, l.spare);
        l.table[..k].copy_from_slice(l.acc);

        // Sparse exponents (RSA's e = 65537 has two set bits) pay more
        // for the 14 window-table multiplies than the table saves; plain
        // left-to-right square-and-multiply does bits-1 squarings plus
        // one multiply per extra set bit.
        let set_bits: u32 = exp.limbs().iter().map(|l| l.count_ones()).sum();
        if set_bits <= 4 {
            for i in (0..exp.bit_len() - 1).rev() {
                self.sqr_assign(l);
                if exp.bit(i) {
                    self.mul_assign(l, 1);
                }
            }
            return;
        }

        // table[d-1] = base^d for d in 1..=15.
        for d in 1..TABLE_ENTRIES {
            let (lower, upper) = l.table.split_at_mut(d * k);
            self.mul(&mut upper[..k], &lower[(d - 1) * k..], &lower[..k]);
        }
        let digit = |w: u32| (exp.limbs()[(w / 16) as usize] >> (w % 16 * 4)) as usize & 0xf;
        // The top window holds the top set bit, so its digit is non-zero.
        let windows = exp.bit_len().div_ceil(4);
        let top = digit(windows - 1);
        l.acc.copy_from_slice(&l.table[(top - 1) * k..top * k]);
        for w in (0..windows - 1).rev() {
            for _ in 0..4 {
                self.sqr_assign(l);
            }
            if digit(w) != 0 {
                self.mul_assign(l, digit(w));
            }
        }
    }

    /// `base^exp mod n`.
    pub fn modpow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let mut ws = self.workspace();
        let mut l = self.lanes(&mut ws);
        self.pow_mont(&mut l, base, exp);
        // Leave Montgomery form: multiply by 1.
        let k = self.n.limbs().len();
        l.table[..k].fill(0);
        l.table[0] = 1;
        self.mul_assign(&mut l, 1);
        Ubig::from_limbs(l.acc.to_vec())
    }

    /// One Miller–Rabin round for `n - 1 = d·2^s` (`d` odd, `s ≥ 1`):
    /// true iff `a^d ≡ 1` or `a^(d·2^r) ≡ -1 (mod n)` for some `r < s`.
    /// `x` stays in Montgomery form through the squarings.
    pub fn is_strong_probable_prime(&self, ws: &mut [u64], a: &Ubig, d: &Ubig, s: u32) -> bool {
        let mut l = self.lanes(ws);
        self.pow_mont(&mut l, a, d);
        if *l.acc == *self.one_m || is_minus_one(l.acc, &self.one_m, self.n.limbs()) {
            return true;
        }
        for _ in 1..s {
            self.sqr_assign(&mut l);
            if is_minus_one(l.acc, &self.one_m, self.n.limbs()) {
                return true;
            }
        }
        false
    }
}

/// `-n0^{-1} mod 2^64` via Newton–Hensel iteration (n0 odd).
fn inv_limb_neg(n0: u64) -> u64 {
    debug_assert!(n0 & 1 == 1);
    // n0·n0 ≡ 1 (mod 8) for odd n0, so x = n0 is an inverse to 3 bits;
    // each of the five iterations doubles the precision.
    let mut x = n0;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(x)));
    }
    debug_assert_eq!(n0.wrapping_mul(x), 1);
    x.wrapping_neg()
}

/// `base^exp mod n` for any `n > 1` (falls back to division-based
/// square-and-multiply when `n` is even).
pub fn modpow(base: &Ubig, exp: &Ubig, n: &Ubig) -> Ubig {
    assert!(*n > Ubig::one(), "modulus must exceed 1");
    if !n.is_even() {
        return MontgomeryCtx::new(n).modpow(base, exp);
    }
    // Cold path for even moduli (not used by RSA, kept for completeness).
    let mut result = Ubig::one();
    let mut b = base.div_rem(n).1;
    for i in 0..exp.bit_len() {
        if exp.bit(i) {
            result = (&result * &b).div_rem(n).1;
        }
        b = (&b * &b).div_rem(n).1;
    }
    result
}

/// Modular inverse `a^{-1} mod n`, if `gcd(a, n) = 1`.
///
/// Extended Euclid over non-negative values with sign tracking.
pub fn invmod(a: &Ubig, n: &Ubig) -> Option<Ubig> {
    if n.is_zero() || a.is_zero() {
        return None;
    }
    // Invariants: r0 = s0*a mod n (up to sign), gcd chain on (r0, r1).
    let mut r0 = n.clone();
    let mut r1 = a.div_rem(n).1;
    if r1.is_zero() {
        return None;
    }
    // Coefficients of `a`: track magnitude + sign separately.
    let mut s0 = Ubig::zero();
    let mut s0_neg = false;
    let mut s1 = Ubig::one();
    let mut s1_neg = false;

    while !r1.is_zero() {
        let (q, r2) = r0.div_rem(&r1);
        // s2 = s0 - q*s1 (signed)
        let qs1 = &q * &s1;
        let (s2, s2_neg) = signed_sub((s0, s0_neg), (qs1, s1_neg));
        r0 = core::mem::replace(&mut r1, r2);
        s0 = core::mem::replace(&mut s1, s2);
        s0_neg = core::mem::replace(&mut s1_neg, s2_neg);
    }
    if !r0.is_one() {
        return None; // not coprime
    }
    let mut inv = s0.div_rem(n).1;
    if s0_neg && !inv.is_zero() {
        inv = n - &inv;
    }
    Some(inv)
}

/// `(a, a_neg) - (b, b_neg)` on sign-magnitude pairs.
fn signed_sub(a: (Ubig, bool), b: (Ubig, bool)) -> (Ubig, bool) {
    let (a, a_neg) = a;
    let (b, b_neg) = b;
    match (a_neg, b_neg) {
        (false, true) => (a + b, false),
        (true, false) => (a + b, true),
        (an, _) => {
            // same sign: magnitude subtraction, sign flips if |b| > |a|
            if a >= b {
                (&a - &b, an && a != b)
            } else {
                (&b - &a, !an)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Ubig {
        Ubig::from(v)
    }

    #[test]
    fn inv_limb_neg_is_negative_inverse() {
        for n0 in [1u64, 3, 5, 0xdead_beef_0bad_f00d | 1, u64::MAX] {
            let x = inv_limb_neg(n0);
            assert_eq!(n0.wrapping_mul(x.wrapping_neg()), 1, "n0={n0}");
        }
    }

    #[test]
    fn modpow_small_known_values() {
        assert_eq!(modpow(&u(2), &u(10), &u(1000)), u(24));
        assert_eq!(modpow(&u(3), &u(0), &u(7)), u(1));
        assert_eq!(modpow(&u(0), &u(5), &u(7)), u(0));
        assert_eq!(modpow(&u(5), &u(117), &u(19)), {
            // 5^117 mod 19 by Fermat: 5^18 ≡ 1, 117 = 6*18+9, 5^9 mod 19
            let mut x = 1u64;
            for _ in 0..9 {
                x = x * 5 % 19;
            }
            u(x)
        });
    }

    #[test]
    fn modpow_fermat_little_theorem() {
        // p prime, a < p  =>  a^(p-1) ≡ 1 (mod p)
        let p = Ubig::from_hex("ffffffffffffffc5").unwrap(); // largest 64-bit prime
        for a in [2u64, 3, 0x1234_5678, 0xdead_beef] {
            let e = &p - &Ubig::one();
            assert_eq!(modpow(&u(a), &e, &p), Ubig::one(), "a={a}");
        }
    }

    #[test]
    fn modpow_matches_naive_for_multi_limb() {
        let n = Ubig::from_hex("c34f8e21b9d473a1550f9c2de38641c7").unwrap(); // odd 128-bit
        let b = Ubig::from_hex("123456789abcdef00fedcba987654321").unwrap();
        let e = u(65537);
        // naive square-and-multiply with division
        let mut naive = Ubig::one();
        let mut base = b.div_rem(&n).1;
        for i in 0..e.bit_len() {
            if e.bit(i) {
                naive = (&naive * &base).div_rem(&n).1;
            }
            base = (&base * &base).div_rem(&n).1;
        }
        assert_eq!(modpow(&b, &e, &n), naive);
    }

    /// Division-based square-and-multiply reference.
    fn naive_modpow(base: &Ubig, exp: &Ubig, n: &Ubig) -> Ubig {
        let mut result = Ubig::one();
        let mut b = base.div_rem(n).1;
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = (&result * &b).div_rem(n).1;
            }
            b = (&b * &b).div_rem(n).1;
        }
        result
    }

    #[test]
    fn sparse_and_windowed_exponents_agree_with_naive() {
        // Straddle the sparse-path threshold (≤ 4 set bits) from both
        // sides: the fast path and the windowed path must both match the
        // division-based reference.
        let n = Ubig::from_hex("c34f8e21b9d473a1550f9c2de38641c7").unwrap();
        let b = Ubig::from_hex("123456789abcdef00fedcba987654321").unwrap();
        for exp in [
            u(1),
            u(2),
            u(65537),       // RSA's e: two set bits
            u(0b1011),      // three set bits
            u(0b1111),      // four set bits: last sparse case
            u(0b11111),     // five set bits: first windowed case
            u(0xdead_beef), // dense
            Ubig::from_hex("ffffffffffffffffffffffffffffffff").unwrap(),
        ] {
            assert_eq!(
                modpow(&b, &exp, &n),
                naive_modpow(&b, &exp, &n),
                "exp={exp:?}"
            );
        }
    }

    #[test]
    fn fixed_and_slice_instantiations_agree_limb_for_limb() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(4);
        let mut moduli = vec![
            [u64::MAX; FIXED_LIMBS], // 2^256 - 1
            [1, 0, 0, 1 << 63],      // 2^255 + 1
        ];
        for _ in 0..32 {
            let mut n: Fixed = rng.gen();
            n[0] |= 1;
            // Top bit set (products reach past 2^256) or clear.
            n[3] = if rng.gen() {
                n[3] | 1 << 63
            } else {
                n[3] >> 1 | 1
            };
            moduli.push(n);
        }
        let r = Ubig::one() << (FIXED_LIMBS as u32 * LIMB_BITS);
        for n in moduli {
            let n_big = Ubig::from_limbs(n.to_vec());
            let n_prime = inv_limb_neg(n[0]);
            let mut n_minus_1 = n;
            n_minus_1[0] -= 1;
            let mut operands = vec![[0; FIXED_LIMBS], [1, 0, 0, 0], n_minus_1];
            for _ in 0..4 {
                let x = Ubig::from_limbs(rng.gen::<Fixed>().to_vec())
                    .div_rem(&n_big)
                    .1;
                let mut limbs = x.limbs().to_vec();
                limbs.resize(FIXED_LIMBS, 0);
                operands.push(limbs.try_into().unwrap());
            }
            for a in &operands {
                for b in &operands {
                    let mut fixed = [0; FIXED_LIMBS];
                    mul_reduce_fixed(&mut fixed, a, b, &n, n_prime);
                    let mut slices = vec![u64::MAX; FIXED_LIMBS];
                    mul_reduce_slices(&mut slices, a, b, &n, n_prime);
                    assert_eq!(fixed[..], slices[..], "n={n:x?} a={a:x?} b={b:x?}");
                    // And both are right: out·R ≡ a·b (mod n), out < n.
                    let out = Ubig::from_limbs(fixed.to_vec());
                    let ab = &Ubig::from_limbs(a.to_vec()) * &Ubig::from_limbs(b.to_vec());
                    assert!(out < n_big);
                    assert_eq!((&out * &r).div_rem(&n_big).1, ab.div_rem(&n_big).1);
                }
            }
        }
    }

    /// The round [`is_base_two_strong_probable_prime`] replaces: a
    /// Montgomery context, its workspace and `a = 2`.
    fn context_round_to_base_two(n: &Ubig) -> bool {
        let n_minus_1 = n - &Ubig::one();
        let s = n_minus_1.trailing_zeros();
        let ctx = MontgomeryCtx::new(n);
        ctx.is_strong_probable_prime(&mut ctx.workspace(), &u(2), &(n_minus_1 >> s), s)
    }

    /// Both rounds' verdict on `n`, which must agree.
    fn base_two_verdict(n: &Ubig, ws: &mut Vec<u64>) -> bool {
        let stack = is_base_two_strong_probable_prime(n.limbs(), ws);
        assert_eq!(stack, context_round_to_base_two(n), "n = {n}");
        stack
    }

    /// What `gen_prime(256)` tests: 256 uniform bits, the top two and
    /// the lowest set.
    fn candidate_256(rng: &mut impl rand::Rng) -> Ubig {
        let mut limbs: Fixed = rng.gen();
        limbs[0] |= 1;
        limbs[3] |= 3 << 62;
        Ubig::from_limbs(limbs.to_vec())
    }

    #[test]
    fn base_two_round_matches_the_context_round() {
        use crate::prime::gen_prime;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(2);
        let mut ws = Vec::new();
        // Random candidates: about one in 90 is prime.
        let passed = (0..2_000)
            .filter(|_| base_two_verdict(&candidate_256(&mut rng), &mut ws))
            .count();
        assert!((5..60).contains(&passed), "{passed} of 2,000 passed");
        // Primes pass at every width: 256 bits on the stack; 192 (three
        // full limbs), 100 and 320 (a partial top limb, so R mod n takes
        // more than one doubling) and 512 bits in `ws`.
        for bits in [256, 256, 256, 256, 192, 100, 320, 512] {
            for _ in 0..4 {
                let p = gen_prime(bits, &mut rng);
                assert!(base_two_verdict(&p, &mut ws), "prime {p}");
            }
        }
        // Products of two primes fail, at 256 bits and across widths.
        for bits in [128, 128, 128, 96, 160, 256] {
            for _ in 0..4 {
                let pq = &gen_prime(bits, &mut rng) * &gen_prime(bits, &mut rng);
                assert!(!base_two_verdict(&pq, &mut ws), "p·q = {pq}");
            }
        }
        // Every odd number up to 5,000: the strong pseudoprimes to base
        // 2 among them (2047, 3277, 4033, 4681) pass both rounds.
        let liars = (3..5_000u64)
            .step_by(2)
            .filter(|&n| base_two_verdict(&u(n), &mut ws))
            .filter(|&n| (3..n).take_while(|d| d * d <= n).any(|d| n % d == 0))
            .collect::<Vec<_>>();
        assert_eq!(liars, [2047, 3277, 4033, 4681]);
    }

    /// The same comparison over 100,000 candidates drawn as
    /// `gen_prime(256)` draws them (about 3 s in release).
    #[test]
    #[ignore]
    fn base_two_round_matches_the_context_round_over_100k_candidates() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(100_000);
        let mut ws = Vec::new();
        let passed = (0..100_000)
            .filter(|_| base_two_verdict(&candidate_256(&mut rng), &mut ws))
            .count();
        assert!((900..1_400).contains(&passed), "{passed} of 100,000 passed");
    }

    #[test]
    fn modpow_even_modulus_fallback() {
        assert_eq!(modpow(&u(7), &u(13), &u(100)), u(7u64.pow(13) % 100));
    }

    #[test]
    fn montgomery_ctx_rejects_even_modulus() {
        let r = std::panic::catch_unwind(|| MontgomeryCtx::new(&u(10)));
        assert!(r.is_err());
    }

    #[test]
    fn invmod_basics() {
        assert_eq!(invmod(&u(3), &u(7)), Some(u(5))); // 3*5=15≡1 mod 7
        assert_eq!(invmod(&u(2), &u(4)), None); // not coprime
        assert_eq!(invmod(&u(1), &u(97)), Some(u(1)));
        assert_eq!(invmod(&u(96), &u(97)), Some(u(96))); // (-1)^-1 = -1
    }

    #[test]
    fn invmod_large_verifies_by_multiplication() {
        let n = Ubig::from_hex("e4057cdd8e6e3c6f21a9b3c95d1fe801").unwrap(); // odd
        let a = Ubig::from_hex("deadbeef0badf00d").unwrap();
        let inv = invmod(&a, &n).expect("coprime");
        assert_eq!((&a * &inv).div_rem(&n).1, Ubig::one());
    }

    #[test]
    fn invmod_of_zero_and_zero_modulus() {
        assert_eq!(invmod(&Ubig::zero(), &u(7)), None);
        assert_eq!(invmod(&u(7), &Ubig::zero()), None);
        assert_eq!(invmod(&u(7), &u(7)), None);
    }

    #[test]
    fn signed_sub_cases() {
        // 5 - 3 = 2
        assert_eq!(signed_sub((u(5), false), (u(3), false)), (u(2), false));
        // 3 - 5 = -2
        assert_eq!(signed_sub((u(3), false), (u(5), false)), (u(2), true));
        // -3 - 5 = -8
        assert_eq!(signed_sub((u(3), true), (u(5), false)), (u(8), true));
        // 3 - (-5) = 8
        assert_eq!(signed_sub((u(3), false), (u(5), true)), (u(8), false));
        // -5 - (-3) = -2
        assert_eq!(signed_sub((u(5), true), (u(3), true)), (u(2), true));
        // -3 - (-5) = 2
        assert_eq!(signed_sub((u(3), true), (u(5), true)), (u(2), false));
        // 5 - 5 = 0 (never negative zero)
        assert_eq!(signed_sub((u(5), false), (u(5), false)), (u(0), false));
    }
}
