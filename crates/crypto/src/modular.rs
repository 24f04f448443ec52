//! Modular arithmetic: Montgomery-form exponentiation and modular inverse.
//!
//! RSA and Miller–Rabin spend essentially all of their time in `modpow`,
//! so that path is one in-place kernel: a Montgomery multiply that
//! interleaves multiplication and reduction limb by limb and writes into
//! caller-provided scratch, under a fixed 4-bit window whose table,
//! accumulator and scratch are carved out of one workspace buffer. The
//! remaining operations (inverse, plain reduction) are cold and use the
//! generic [`Ubig`] division.

use crate::limb::{self, adc, mac, LIMB_BITS};
use crate::uint::Ubig;
use core::cmp::Ordering;

/// Window table size: `base^1 ..= base^15`, one per non-zero 4-bit digit.
const TABLE_ENTRIES: usize = 15;

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
        let mut one_m = vec![0; k];
        let mut t = vec![0; k + 1];
        ctx.mul(&mut t, &ctx.r2, &[1]);
        ctx.reduce_into(&mut one_m, &t);
        ctx.one_m = one_m;
        ctx
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Ubig {
        &self.n
    }

    /// A zeroed scratch buffer for one exponentiation at a time: window
    /// table, accumulator and the kernel's `k+1` limbs. `modpow` makes
    /// one per call; [`Self::is_strong_probable_prime`] takes the
    /// caller's, so Miller–Rabin reuses one across its rounds.
    pub fn workspace(&self) -> Vec<u64> {
        vec![0; self.workspace_len()]
    }

    fn workspace_len(&self) -> usize {
        (TABLE_ENTRIES + 2) * self.n.limbs().len() + 1
    }

    /// The kernel: `t = a·b·R^-1 mod n`, or that plus `n` (`t < 2n`, the
    /// extra bit in `t[k]`). Multiplication and reduction are interleaved
    /// limb by limb (CIOS), with the two passes of each outer step fused
    /// into one walk over `t`. `a` is `k` limbs and reduced; `b` may be
    /// shorter than `k` limbs (missing high limbs are zero).
    fn mul(&self, t: &mut [u64], a: &[u64], b: &[u64]) {
        let n = self.n.limbs();
        let k = n.len();
        assert!(a.len() == k && b.len() <= k && t.len() == k + 1);
        t.fill(0);
        for i in 0..k {
            let b_i = b.get(i).copied().unwrap_or(0);
            let (lo, mut c_mul) = mac(a[0], b_i, t[0], 0);
            // m makes the low limb of t + a·b_i + m·n vanish.
            let m = lo.wrapping_mul(self.n_prime);
            let (zero, mut c_red) = mac(m, n[0], lo, 0);
            debug_assert_eq!(zero, 0);
            for j in 1..k {
                let (lo, hi) = mac(a[j], b_i, t[j], c_mul);
                c_mul = hi;
                let (lo, hi) = mac(m, n[j], lo, c_red);
                c_red = hi;
                t[j - 1] = lo;
            }
            let (lo, hi) = adc(t[k], c_mul, c_red);
            t[k - 1] = lo;
            t[k] = hi;
        }
    }

    /// The kernel's one conditional subtract: `out = t mod n` for the
    /// `t < 2n` that [`Self::mul`] leaves.
    fn reduce_into(&self, out: &mut [u64], t: &[u64]) {
        let n = self.n.limbs();
        out.copy_from_slice(&t[..n.len()]);
        if t[n.len()] != 0 || limb::cmp_same_len(out, n) != Ordering::Less {
            // With t[k] set the borrow out of the low k limbs cancels it.
            limb::sub_assign(out, n);
        }
    }

    /// `acc = acc·b·R^-1 mod n`.
    fn mul_assign(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        self.mul(t, acc, b);
        self.reduce_into(acc, t);
    }

    /// `acc = acc²·R^-1 mod n` — the hot operation of modpow (the ladder
    /// squares every exponent bit but multiplies only on set digits).
    fn sqr_assign(&self, acc: &mut [u64], t: &mut [u64]) {
        self.mul(t, acc, acc);
        self.reduce_into(acc, t);
    }

    /// `base^exp` in Montgomery form, left in the accumulator of `ws`
    /// (from [`Self::workspace`]); returns the accumulator and the kernel
    /// scratch. Fixed 4-bit window, with a square-and-multiply fast path
    /// for sparse exponents.
    fn pow_mont<'w>(
        &self,
        ws: &'w mut [u64],
        base: &Ubig,
        exp: &Ubig,
    ) -> (&'w mut [u64], &'w mut [u64]) {
        let k = self.n.limbs().len();
        assert_eq!(ws.len(), self.workspace_len(), "foreign workspace");
        let (table, rest) = ws.split_at_mut(TABLE_ENTRIES * k);
        let (acc, t) = rest.split_at_mut(k);
        if exp.is_zero() {
            acc.copy_from_slice(&self.one_m);
            return (acc, t);
        }
        let reduced;
        let base = if *base < self.n {
            base
        } else {
            reduced = base.div_rem(&self.n).1;
            &reduced
        };
        self.mul(t, &self.r2, base.limbs());
        self.reduce_into(&mut table[..k], t);

        // Sparse exponents (RSA's e = 65537 has two set bits) pay more
        // for the 14 window-table multiplies than the table saves; plain
        // left-to-right square-and-multiply does bits-1 squarings plus
        // one multiply per extra set bit.
        let set_bits: u32 = exp.limbs().iter().map(|l| l.count_ones()).sum();
        if set_bits <= 4 {
            let base_m = &table[..k];
            acc.copy_from_slice(base_m);
            for i in (0..exp.bit_len() - 1).rev() {
                self.sqr_assign(acc, t);
                if exp.bit(i) {
                    self.mul_assign(acc, base_m, t);
                }
            }
            return (acc, t);
        }

        // table[d-1] = base^d for d in 1..=15.
        for d in 1..TABLE_ENTRIES {
            let (lower, upper) = table.split_at_mut(d * k);
            self.mul(t, &lower[(d - 1) * k..], &lower[..k]);
            self.reduce_into(&mut upper[..k], t);
        }
        let digit = |w: u32| (exp.limbs()[(w / 16) as usize] >> (w % 16 * 4)) as usize & 0xf;
        let power = |d: usize| &table[(d - 1) * k..d * k];
        // The top window holds the top set bit, so its digit is non-zero.
        let windows = exp.bit_len().div_ceil(4);
        acc.copy_from_slice(power(digit(windows - 1)));
        for w in (0..windows - 1).rev() {
            for _ in 0..4 {
                self.sqr_assign(acc, t);
            }
            if digit(w) != 0 {
                self.mul_assign(acc, power(digit(w)), t);
            }
        }
        (acc, t)
    }

    /// `base^exp mod n`.
    pub fn modpow(&self, base: &Ubig, exp: &Ubig) -> Ubig {
        let mut ws = self.workspace();
        let (acc, t) = self.pow_mont(&mut ws, base, exp);
        // Leave Montgomery form: multiply by 1.
        self.mul_assign(acc, &[1], t);
        Ubig::from_limbs(acc.to_vec())
    }

    /// One Miller–Rabin round for `n - 1 = d·2^s` (`d` odd, `s ≥ 1`):
    /// true iff `a^d ≡ 1` or `a^(d·2^r) ≡ -1 (mod n)` for some `r < s`.
    /// `x` stays in Montgomery form through the squarings.
    pub fn is_strong_probable_prime(&self, ws: &mut [u64], a: &Ubig, d: &Ubig, s: u32) -> bool {
        let (x, t) = self.pow_mont(ws, a, d);
        if *x == *self.one_m || self.is_minus_one(x) {
            return true;
        }
        for _ in 1..s {
            self.sqr_assign(x, t);
            if self.is_minus_one(x) {
                return true;
            }
        }
        false
    }

    /// `x ≡ -1` for Montgomery-form `x`, i.e. `x + (R mod n) = n`.
    fn is_minus_one(&self, x: &[u64]) -> bool {
        let mut carry = 0;
        for ((&x_j, &one_j), &n_j) in x.iter().zip(&self.one_m).zip(self.n.limbs()) {
            let (sum, c) = adc(x_j, one_j, carry);
            if sum != n_j {
                return false;
            }
            carry = c;
        }
        carry == 0
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
