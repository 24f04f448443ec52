//! Arbitrary-precision unsigned integers.
//!
//! [`Ubig`] stores little-endian `u64` limbs with the invariant that the
//! highest limb is non-zero (so zero is the empty limb vector). All
//! arithmetic the RSA layer needs outside exponentiation lives here: ring
//! operations, Knuth Algorithm-D division, and shifts.

use crate::limb::{self, LIMB_BITS};
use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Shl, Shr, Sub, SubAssign};

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    /// Little-endian limbs; no trailing (most-significant) zero limbs.
    limbs: Vec<u64>,
}

impl Ubig {
    /// The value 0.
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// Construct from raw little-endian limbs (normalizing).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        Ubig { limbs }
    }

    /// Borrow the little-endian limbs.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Give the limb buffer back, for reuse by the next `from_limbs`.
    pub fn into_limbs(self) -> Vec<u64> {
        self.limbs
    }

    /// True iff the value is 0.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is 1.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the lowest bit is clear (0 counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|w| w & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub fn bit_len(&self) -> u32 {
        match self.limbs.last() {
            None => 0,
            Some(top) => {
                (self.limbs.len() as u32 - 1) * LIMB_BITS + (LIMB_BITS - top.leading_zeros())
            }
        }
    }

    /// Value of bit `i` (false beyond the top).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / LIMB_BITS) as usize;
        match self.limbs.get(limb) {
            None => false,
            Some(w) => (w >> (i % LIMB_BITS)) & 1 == 1,
        }
    }

    /// Set bit `i`, growing as needed.
    pub fn set_bit(&mut self, i: u32) {
        let limb = (i / LIMB_BITS) as usize;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % LIMB_BITS);
    }

    /// Exact conversion to `u64` if the value fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Parse from big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut w = 0u64;
            for &b in chunk {
                w = (w << 8) | b as u64;
            }
            limbs.push(w);
        }
        Self::from_limbs(limbs)
    }

    /// Length of the minimal big-endian encoding (0 for 0).
    pub fn byte_len(&self) -> usize {
        (self.bit_len() as usize).div_ceil(8)
    }

    /// Append the minimal big-endian bytes to `out` (nothing for 0): the
    /// allocation-free form of [`Self::to_be_bytes`] for encoders that
    /// write into a caller-owned buffer.
    pub fn write_be_bytes(&self, out: &mut Vec<u8>) {
        let Some((top, rest)) = self.limbs.split_last() else {
            return;
        };
        // The top limb is non-zero, so at most 7 of its bytes are zero.
        out.extend_from_slice(&top.to_be_bytes()[(top.leading_zeros() / 8) as usize..]);
        for w in rest.iter().rev() {
            out.extend_from_slice(&w.to_be_bytes());
        }
    }

    /// Serialize to minimal big-endian bytes (empty for 0).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        self.write_be_bytes(&mut out);
        out
    }

    /// Serialize to exactly `len` big-endian bytes, left-padding with zeros.
    ///
    /// # Panics
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_be_bytes_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_be_bytes();
        assert!(
            raw.len() <= len,
            "value needs {} bytes, requested {}",
            raw.len(),
            len
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Parse a hexadecimal string (no prefix, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        // Left-pad to an even number of nibbles, then go through bytes.
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.as_bytes();
        let first = s.len() % 2;
        if first == 1 {
            bytes.push(hex_val(s[0]));
        }
        for pair in s[first..].chunks(2) {
            bytes.push((hex_val(pair[0]) << 4) | hex_val(pair[1]));
        }
        Some(Self::from_be_bytes(&bytes))
    }

    /// Lowercase hexadecimal rendering without prefix ("0" for zero).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        for (i, w) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{w:x}"));
            } else {
                s.push_str(&format!("{w:016x}"));
            }
        }
        s
    }

    /// `(self / rhs, self % rhs)`.
    ///
    /// # Panics
    /// Panics on division by zero.
    pub fn div_rem(&self, rhs: &Ubig) -> (Ubig, Ubig) {
        assert!(!rhs.is_zero(), "division by zero");
        match self.cmp(rhs) {
            Ordering::Less => return (Ubig::zero(), self.clone()),
            Ordering::Equal => return (Ubig::one(), Ubig::zero()),
            Ordering::Greater => {}
        }
        if rhs.limbs.len() == 1 {
            let (q, r) = self.div_rem_limb(rhs.limbs[0]);
            return (q, Ubig::from(r));
        }
        self.div_rem_knuth(rhs)
    }

    /// Divide by a single limb, returning `(quotient, remainder)`.
    pub fn div_rem_limb(&self, d: u64) -> (Ubig, u64) {
        assert!(d != 0, "division by zero");
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u64;
        for (i, &w) in self.limbs.iter().enumerate().rev() {
            let cur = ((rem as u128) << LIMB_BITS) | w as u128;
            q[i] = (cur / d as u128) as u64;
            rem = (cur % d as u128) as u64;
        }
        (Ubig::from_limbs(q), rem)
    }

    /// `self mod d`, without building the quotient (allocation-free).
    pub fn rem_limb(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        self.limbs.iter().rev().fold(0, |rem, &w| {
            ((((rem as u128) << LIMB_BITS) | w as u128) % d as u128) as u64
        })
    }

    /// Knuth Algorithm D (TAOCP 4.3.1) for divisors of ≥ 2 limbs.
    fn div_rem_knuth(&self, rhs: &Ubig) -> (Ubig, Ubig) {
        let n = rhs.limbs.len();
        let m = self.limbs.len() - n;

        // D1: normalize so the divisor's top bit is set.
        let shift = rhs.limbs[n - 1].leading_zeros();
        let mut v = rhs.limbs.clone();
        limb::shl_small(&mut v, shift);
        let mut u = self.limbs.clone();
        u.push(0);
        let spill = limb::shl_small(&mut u, shift);
        debug_assert_eq!(spill, 0);

        let mut q = vec![0u64; m + 1];
        let v_top = v[n - 1];
        let v_next = v[n - 2];

        // D2..D7: main loop over quotient digits.
        for j in (0..=m).rev() {
            // D3: estimate q̂ from the top two dividend limbs.
            let num = ((u[j + n] as u128) << LIMB_BITS) | u[j + n - 1] as u128;
            let mut q_hat = num / v_top as u128;
            let mut r_hat = num % v_top as u128;
            // Refine: at most two corrections bring q̂ within 1 of q.
            while q_hat >> LIMB_BITS != 0
                || q_hat * v_next as u128 > ((r_hat << LIMB_BITS) | u[j + n - 2] as u128)
            {
                q_hat -= 1;
                r_hat += v_top as u128;
                if r_hat >> LIMB_BITS != 0 {
                    break;
                }
            }
            let mut q_hat = q_hat as u64;

            // D4: u[j..j+n+1] -= q̂ * v
            let mut borrow = 0u64;
            let mut carry = 0u64;
            for i in 0..n {
                let (lo, hi) = limb::mac(v[i], q_hat, 0, carry);
                carry = hi;
                let (d, b) = limb::sbb(u[j + i], lo, borrow);
                u[j + i] = d;
                borrow = b;
            }
            let (d, b) = limb::sbb(u[j + n], carry, borrow);
            u[j + n] = d;

            // D5/D6: q̂ was one too large (probability ~2/2^64): add back.
            if b != 0 {
                q_hat -= 1;
                let mut carry = 0u64;
                for i in 0..n {
                    let (s, c) = limb::adc(u[j + i], v[i], carry);
                    u[j + i] = s;
                    carry = c;
                }
                u[j + n] = u[j + n].wrapping_add(carry);
            }
            q[j] = q_hat;
        }

        // D8: denormalize the remainder.
        u.truncate(n);
        limb::shr_small(&mut u, shift);
        (Ubig::from_limbs(q), Ubig::from_limbs(u))
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Ubig) -> Ubig {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let a_tz = a.trailing_zeros();
        let b_tz = b.trailing_zeros();
        let common = a_tz.min(b_tz);
        a = a >> a_tz;
        b = b >> b_tz;
        loop {
            if a > b {
                core::mem::swap(&mut a, &mut b);
            }
            b -= &a;
            if b.is_zero() {
                return a << common;
            }
            b = b.clone() >> b.trailing_zeros();
        }
    }

    /// Number of trailing zero bits (0 for the value 0).
    pub fn trailing_zeros(&self) -> u32 {
        for (i, &w) in self.limbs.iter().enumerate() {
            if w != 0 {
                return i as u32 * LIMB_BITS + w.trailing_zeros();
            }
        }
        0
    }

    /// Schoolbook product into a fresh value. Exponentiation runs in
    /// [`crate::modular`]'s in-place kernel, so what multiplies here is
    /// cold (key assembly, CRT recombination, `invmod`).
    fn mul_impl(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        limb::mul_schoolbook(&mut out, a, b);
        out
    }
}

fn hex_val(b: u8) -> u8 {
    match b {
        b'0'..=b'9' => b - b'0',
        b'a'..=b'f' => b - b'a' + 10,
        b'A'..=b'F' => b - b'A' + 10,
        _ => unreachable!("validated hexdigit"),
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        if v == 0 {
            Ubig::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }
}

impl From<u128> for Ubig {
    fn from(v: u128) -> Self {
        Ubig::from_limbs(vec![v as u64, (v >> 64) as u64])
    }
}

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => limb::cmp_same_len(&self.limbs, &other.limbs),
            other => other,
        }
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl AddAssign<&Ubig> for Ubig {
    fn add_assign(&mut self, rhs: &Ubig) {
        if self.limbs.len() < rhs.limbs.len() {
            self.limbs.resize(rhs.limbs.len(), 0);
        }
        let carry = limb::add_assign(&mut self.limbs, &rhs.limbs);
        if carry != 0 {
            self.limbs.push(carry);
        }
    }
}

impl Add<&Ubig> for &Ubig {
    type Output = Ubig;
    fn add(self, rhs: &Ubig) -> Ubig {
        let mut out = self.clone();
        out += rhs;
        out
    }
}

impl Add for Ubig {
    type Output = Ubig;
    fn add(mut self, rhs: Ubig) -> Ubig {
        self += &rhs;
        self
    }
}

impl SubAssign<&Ubig> for Ubig {
    /// # Panics
    /// Panics on underflow (`self < rhs`).
    fn sub_assign(&mut self, rhs: &Ubig) {
        assert!(self.limbs.len() >= rhs.limbs.len(), "Ubig underflow");
        let borrow = limb::sub_assign(&mut self.limbs, &rhs.limbs);
        assert_eq!(borrow, 0, "Ubig underflow");
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

impl Sub<&Ubig> for &Ubig {
    type Output = Ubig;
    fn sub(self, rhs: &Ubig) -> Ubig {
        let mut out = self.clone();
        out -= rhs;
        out
    }
}

impl Sub for Ubig {
    type Output = Ubig;
    fn sub(mut self, rhs: Ubig) -> Ubig {
        self -= &rhs;
        self
    }
}

impl Mul<&Ubig> for &Ubig {
    type Output = Ubig;
    fn mul(self, rhs: &Ubig) -> Ubig {
        Ubig::from_limbs(Ubig::mul_impl(&self.limbs, &rhs.limbs))
    }
}

impl Mul for Ubig {
    type Output = Ubig;
    fn mul(self, rhs: Ubig) -> Ubig {
        &self * &rhs
    }
}

impl Mul<u64> for &Ubig {
    type Output = Ubig;
    #[allow(clippy::suspicious_arithmetic_impl)] // `+ 1` sizes the carry limb
    fn mul(self, rhs: u64) -> Ubig {
        let mut out = vec![0u64; self.limbs.len() + 1];
        let carry = limb::add_mul_limb(&mut out[..self.limbs.len()], &self.limbs, rhs);
        let n = self.limbs.len();
        out[n] = carry;
        Ubig::from_limbs(out)
    }
}

impl Div<&Ubig> for &Ubig {
    type Output = Ubig;
    fn div(self, rhs: &Ubig) -> Ubig {
        self.div_rem(rhs).0
    }
}

impl Rem<&Ubig> for &Ubig {
    type Output = Ubig;
    fn rem(self, rhs: &Ubig) -> Ubig {
        self.div_rem(rhs).1
    }
}

impl Shl<u32> for Ubig {
    type Output = Ubig;
    fn shl(self, sh: u32) -> Ubig {
        if self.is_zero() {
            return self;
        }
        let limb_sh = (sh / LIMB_BITS) as usize;
        let bit_sh = sh % LIMB_BITS;
        let mut limbs = vec![0u64; limb_sh];
        limbs.extend_from_slice(&self.limbs);
        let spill = limb::shl_small(&mut limbs[limb_sh..], bit_sh);
        if spill != 0 {
            limbs.push(spill);
        }
        Ubig::from_limbs(limbs)
    }
}

impl Shr<u32> for Ubig {
    type Output = Ubig;
    fn shr(self, sh: u32) -> Ubig {
        let limb_sh = (sh / LIMB_BITS) as usize;
        if limb_sh >= self.limbs.len() {
            return Ubig::zero();
        }
        let mut limbs = self.limbs[limb_sh..].to_vec();
        limb::shr_small(&mut limbs, sh % LIMB_BITS);
        Ubig::from_limbs(limbs)
    }
}

impl fmt::Debug for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ubig(0x{})", self.to_hex())
    }
}

impl fmt::Display for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(v: u64) -> Ubig {
        Ubig::from(v)
    }

    #[test]
    fn zero_and_one_identities() {
        assert!(Ubig::zero().is_zero());
        assert!(Ubig::one().is_one());
        assert_eq!(&u(5) + &Ubig::zero(), u(5));
        assert_eq!(&u(5) * &Ubig::one(), u(5));
        assert_eq!(&u(5) * &Ubig::zero(), Ubig::zero());
    }

    #[test]
    fn from_u128_roundtrips() {
        let v = Ubig::from(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128);
        assert_eq!(v.to_hex(), "123456789abcdeffedcba9876543210");
    }

    #[test]
    fn bytes_roundtrip() {
        let v = Ubig::from_hex("deadbeef0badf00d1234").unwrap();
        assert_eq!(Ubig::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(v.to_be_bytes_padded(16).len(), 16);
        assert_eq!(
            Ubig::from_be_bytes(&v.to_be_bytes_padded(16)),
            v,
            "padding must not change the value"
        );
    }

    #[test]
    fn hex_parse_rejects_garbage() {
        assert!(Ubig::from_hex("").is_none());
        assert!(Ubig::from_hex("xyz").is_none());
        assert_eq!(Ubig::from_hex("0").unwrap(), Ubig::zero());
        assert_eq!(Ubig::from_hex("fF").unwrap(), u(255));
    }

    #[test]
    fn addition_carries_across_limbs() {
        let a = Ubig::from(u64::MAX);
        let b = u(1);
        assert_eq!((&a + &b).to_hex(), "10000000000000000");
    }

    #[test]
    fn subtraction_inverse_of_addition() {
        let a = Ubig::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
        let b = Ubig::from_hex("0123456789abcdef").unwrap();
        let s = &a + &b;
        assert_eq!(&s - &b, a);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = &u(1) - &u(2);
    }

    #[test]
    fn multiplication_matches_u128() {
        let a = 0x1234_5678_9abc_def0u64;
        let b = 0xfedc_ba98_7654_3210u64;
        let expect = Ubig::from(a as u128 * b as u128);
        assert_eq!(&u(a) * &u(b), expect);
    }

    #[test]
    fn div_rem_identity_small() {
        let a = Ubig::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let b = Ubig::from_hex("fedc").unwrap();
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_identity_multi_limb_divisor() {
        let a = Ubig::from_hex(
            "aa55aa55aa55aa55aa55aa55aa55aa55aa55aa55aa55aa55aa55aa55aa55aa55deadbeef",
        )
        .unwrap();
        let b = Ubig::from_hex("123456789abcdef0123456789abcdef0").unwrap();
        let (q, r) = a.div_rem(&b);
        assert!(r < b);
        assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_edge_cases() {
        let a = u(100);
        assert_eq!(a.div_rem(&u(100)), (Ubig::one(), Ubig::zero()));
        assert_eq!(a.div_rem(&u(101)), (Ubig::zero(), u(100)));
        assert_eq!(Ubig::zero().div_rem(&u(7)), (Ubig::zero(), Ubig::zero()));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = u(1).div_rem(&Ubig::zero());
    }

    #[test]
    fn knuth_d6_addback_case() {
        // Crafted so the q̂ estimate overshoots and the add-back branch runs:
        // classic worst case with divisor just above a power of two.
        let a = Ubig::from_hex("800000000000000000000000000000000000000000000000").unwrap();
        let b = Ubig::from_hex("800000000000000000000000000000001").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn shifts_roundtrip() {
        let v = Ubig::from_hex("deadbeef0badf00d").unwrap();
        assert_eq!((v.clone() << 100) >> 100, v);
        assert_eq!(v.clone() >> 200, Ubig::zero());
        assert_eq!((v.clone() << 64).limbs()[0], 0);
    }

    #[test]
    fn bit_len_and_bits() {
        assert_eq!(Ubig::zero().bit_len(), 0);
        assert_eq!(u(1).bit_len(), 1);
        assert_eq!(u(0xff).bit_len(), 8);
        assert_eq!((Ubig::one() << 64).bit_len(), 65);
        let mut v = Ubig::zero();
        v.set_bit(130);
        assert!(v.bit(130));
        assert!(!v.bit(129));
        assert_eq!(v.bit_len(), 131);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(u(12).gcd(&u(18)), u(6));
        assert_eq!(u(17).gcd(&u(13)), u(1));
        assert_eq!(u(0).gcd(&u(5)), u(5));
        assert_eq!(u(5).gcd(&u(0)), u(5));
        let a = Ubig::from_hex("100000000000000000000000").unwrap();
        let b = Ubig::from_hex("10000000000").unwrap();
        assert_eq!(a.gcd(&b), b);
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(u(2) > u(1));
        assert!(Ubig::from(u64::MAX) < (Ubig::one() << 64));
        assert_eq!(u(7).cmp(&u(7)), Ordering::Equal);
    }

    #[test]
    fn trailing_zeros_counts() {
        assert_eq!(u(8).trailing_zeros(), 3);
        assert_eq!((Ubig::one() << 64).trailing_zeros(), 64);
        assert_eq!(Ubig::zero().trailing_zeros(), 0);
    }
}
