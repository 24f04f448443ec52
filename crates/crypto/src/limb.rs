//! Low-level limb arithmetic.
//!
//! A multi-precision integer is stored as little-endian `u64` limbs. The
//! functions here are the carry/borrow-propagating primitives everything in
//! [`crate::uint`] is built from. They operate on raw slices so the higher
//! layers can work in place and avoid allocation on hot paths.

/// Number of bits in one limb.
pub const LIMB_BITS: u32 = 64;

/// `a + b + carry`, returning `(sum, carry_out)`.
#[inline(always)]
pub fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let wide = a as u128 + b as u128 + carry as u128;
    (wide as u64, (wide >> LIMB_BITS) as u64)
}

/// `a - b - borrow`, returning `(diff, borrow_out)` with `borrow_out ∈ {0,1}`.
#[inline(always)]
pub fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let wide = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (wide as u64, (wide >> 127) as u64)
}

/// `a * b + add + carry`, returning `(low, high)`.
#[inline(always)]
pub fn mac(a: u64, b: u64, add: u64, carry: u64) -> (u64, u64) {
    let wide = a as u128 * b as u128 + add as u128 + carry as u128;
    (wide as u64, (wide >> LIMB_BITS) as u64)
}

/// In-place `acc += rhs`, returning the final carry (0 or 1).
///
/// `acc` must be at least as long as `rhs`.
pub fn add_assign(acc: &mut [u64], rhs: &[u64]) -> u64 {
    debug_assert!(acc.len() >= rhs.len());
    let mut carry = 0;
    for (a, &b) in acc.iter_mut().zip(rhs.iter()) {
        let (s, c) = adc(*a, b, carry);
        *a = s;
        carry = c;
    }
    if carry != 0 {
        for a in acc[rhs.len()..].iter_mut() {
            let (s, c) = adc(*a, 0, carry);
            *a = s;
            carry = c;
            if carry == 0 {
                break;
            }
        }
    }
    carry
}

/// In-place `acc -= rhs`, returning the final borrow (0 or 1).
///
/// `acc` must be at least as long as `rhs`.
pub fn sub_assign(acc: &mut [u64], rhs: &[u64]) -> u64 {
    debug_assert!(acc.len() >= rhs.len());
    let mut borrow = 0;
    for (a, &b) in acc.iter_mut().zip(rhs.iter()) {
        let (d, bo) = sbb(*a, b, borrow);
        *a = d;
        borrow = bo;
    }
    if borrow != 0 {
        for a in acc[rhs.len()..].iter_mut() {
            let (d, bo) = sbb(*a, 0, borrow);
            *a = d;
            borrow = bo;
            if borrow == 0 {
                break;
            }
        }
    }
    borrow
}

/// `acc[..] += a * b` where `acc` is at least `a.len() + 1` long.
/// Returns the carry out of the last touched limb.
pub fn add_mul_limb(acc: &mut [u64], a: &[u64], b: u64) -> u64 {
    debug_assert!(acc.len() >= a.len());
    let mut carry = 0;
    for (acc_i, &a_i) in acc.iter_mut().zip(a.iter()) {
        let (lo, hi) = mac(a_i, b, *acc_i, carry);
        *acc_i = lo;
        carry = hi;
    }
    let mut i = a.len();
    while carry != 0 && i < acc.len() {
        let (s, c) = adc(acc[i], 0, carry);
        acc[i] = s;
        carry = c;
        i += 1;
    }
    carry
}

/// Schoolbook product `out = a * b`. `out` must be zeroed and exactly
/// `a.len() + b.len()` long.
pub fn mul_schoolbook(out: &mut [u64], a: &[u64], b: &[u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    debug_assert!(out.iter().all(|&w| w == 0));
    for (j, &b_j) in b.iter().enumerate() {
        if b_j == 0 {
            continue;
        }
        let carry = add_mul_limb(&mut out[j..j + a.len()], a, b_j);
        out[j + a.len()] = carry;
    }
}

/// Shift `limbs` left by `sh` bits (`sh < 64`), returning the bits shifted
/// out of the top limb.
pub fn shl_small(limbs: &mut [u64], sh: u32) -> u64 {
    debug_assert!(sh < LIMB_BITS);
    if sh == 0 {
        return 0;
    }
    let mut carry = 0;
    for w in limbs.iter_mut() {
        let new_carry = *w >> (LIMB_BITS - sh);
        *w = (*w << sh) | carry;
        carry = new_carry;
    }
    carry
}

/// Shift `limbs` right by `sh` bits (`sh < 64`).
pub fn shr_small(limbs: &mut [u64], sh: u32) {
    debug_assert!(sh < LIMB_BITS);
    if sh == 0 {
        return;
    }
    let mut carry = 0;
    for w in limbs.iter_mut().rev() {
        let new_carry = *w << (LIMB_BITS - sh);
        *w = (*w >> sh) | carry;
        carry = new_carry;
    }
}

/// Compare two equal-length limb slices as little-endian integers.
pub fn cmp_same_len(a: &[u64], b: &[u64]) -> core::cmp::Ordering {
    debug_assert_eq!(a.len(), b.len());
    for (&x, &y) in a.iter().rev().zip(b.iter().rev()) {
        match x.cmp(&y) {
            core::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    core::cmp::Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cmp::Ordering;

    #[test]
    fn adc_carries() {
        assert_eq!(adc(u64::MAX, 1, 0), (0, 1));
        assert_eq!(adc(u64::MAX, u64::MAX, 1), (u64::MAX, 1));
        assert_eq!(adc(1, 2, 0), (3, 0));
    }

    #[test]
    fn sbb_borrows() {
        assert_eq!(sbb(0, 1, 0), (u64::MAX, 1));
        assert_eq!(sbb(5, 3, 1), (1, 0));
        assert_eq!(sbb(0, 0, 1), (u64::MAX, 1));
    }

    #[test]
    fn mac_max_operands_do_not_overflow() {
        // (2^64-1)^2 + (2^64-1) + (2^64-1) = 2^128 - 1, the u128 max.
        let (lo, hi) = mac(u64::MAX, u64::MAX, u64::MAX, u64::MAX);
        assert_eq!(lo, u64::MAX);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn add_assign_propagates_through_upper_limbs() {
        let mut acc = vec![u64::MAX, u64::MAX, 7];
        let carry = add_assign(&mut acc, &[1]);
        assert_eq!(carry, 0);
        assert_eq!(acc, vec![0, 0, 8]);
    }

    #[test]
    fn add_assign_returns_overflow_carry() {
        let mut acc = vec![u64::MAX];
        assert_eq!(add_assign(&mut acc, &[1]), 1);
        assert_eq!(acc, vec![0]);
    }

    #[test]
    fn sub_assign_borrows_through_upper_limbs() {
        let mut acc = vec![0, 0, 8];
        let borrow = sub_assign(&mut acc, &[1]);
        assert_eq!(borrow, 0);
        assert_eq!(acc, vec![u64::MAX, u64::MAX, 7]);
    }

    #[test]
    fn mul_schoolbook_small() {
        let mut out = vec![0; 2];
        mul_schoolbook(&mut out, &[6], &[7]);
        assert_eq!(out, vec![42, 0]);
    }

    #[test]
    fn mul_schoolbook_cross_limb() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let mut out = vec![0; 2];
        mul_schoolbook(&mut out, &[u64::MAX], &[u64::MAX]);
        assert_eq!(out, vec![1, u64::MAX - 1]);
    }

    #[test]
    fn shl_shr_roundtrip() {
        let mut v = vec![0xdead_beef_0badu64, 0x1234];
        let orig = v.clone();
        let spill = shl_small(&mut v, 13);
        assert_eq!(spill, 0); // top limb has headroom
        shr_small(&mut v, 13);
        assert_eq!(v, orig);
    }

    #[test]
    fn cmp_same_len_orders_by_high_limb() {
        assert_eq!(cmp_same_len(&[0, 2], &[u64::MAX, 1]), Ordering::Greater);
        assert_eq!(cmp_same_len(&[3, 1], &[3, 1]), Ordering::Equal);
        assert_eq!(cmp_same_len(&[4, 1], &[3, 2]), Ordering::Less);
    }
}
