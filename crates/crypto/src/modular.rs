//! Modular arithmetic: Montgomery-form exponentiation, the two halves
//! of the Baillie–PSW primality test, and modular inverse.
//!
//! RSA spends essentially all of its time in `modpow`, and key
//! generation in the primality test, so both run on one in-place kernel:
//! a Montgomery multiply that interleaves multiplication and reduction
//! limb by limb and ends in the conditional subtract (`mul_reduce`).
//! Exponentiation puts a fixed 4-bit window over it, whose table and two
//! alternating accumulators are carved out of one workspace buffer. The
//! kernel body is compiled twice — over `[u64; 4]` for the 256-bit primes
//! of an RSA-512 key, over slices for every other width — and `mont_mul`
//! picks.
//!
//! The primality test needs no [`MontgomeryCtx`]: both halves keep every
//! value in Montgomery form and reach it from `R mod n` by doublings and
//! additions, so neither needs `R²`, a window table or a [`Ubig`]. At the
//! fixed width their lanes live on the stack; other widths carve them out
//! of a caller's buffer, which a prime search keeps across candidates.
//!
//! - The Miller–Rabin round to base 2 (`is_base_two_strong_probable_prime`)
//!   computes `2^d` by squarings and doublings, on three lanes: `R mod n`,
//!   the running value and the spare.
//! - The strong Lucas test (`is_strong_lucas_probable_prime`) runs the
//!   sequences `U` and `V` for Selfridge's parameters, on six lanes:
//!   `R mod n`, `D` and `Q` in Montgomery form, `U`, `V` and `Q^k`, and
//!   reuses the first as the spare once `D` and `Q` are built. Its
//!   halvings add `n` to an odd value and shift. Selfridge's search for
//!   `D` takes one `u64` Jacobi symbol per try, over `n mod |D|`.
//!
//! The remaining operations (inverse, plain reduction) are cold and use
//! the generic [`Ubig`] division.

use crate::limb::{adc, add_assign, mac, sbb, shr_small, sub_assign, LIMB_BITS};
use crate::uint::Ubig;

/// Window table size: `base^1 ..= base^15`, one per non-zero 4-bit digit.
const TABLE_ENTRIES: usize = 15;

/// The width the kernel is also compiled at with its loops unrolled and
/// its limbs in registers: the simulator's default RSA-512 keys make
/// every primality test of key generation a 4-limb one, and both CRT
/// halves of every signature a 4-limb exponentiation. Measured per multiply
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

/// `x = x + y mod n` for `x, y < n`.
fn add_mod(x: &mut [u64], y: &[u64], n: &[u64]) {
    let carry = add_assign(x, y);
    reduce_once(x, carry, n);
}

/// `x = x - y mod n` for `x, y < n`.
fn sub_mod(x: &mut [u64], y: &[u64], n: &[u64]) {
    if sub_assign(x, y) != 0 {
        add_assign(x, n);
    }
}

/// `x = x/2 mod n` for `x < n` and odd `n`: an odd `x` becomes the even
/// `x + n` first, whose carry is the top bit of the shifted value.
fn half_mod(x: &mut [u64], n: &[u64]) {
    let top = if x[0] & 1 == 1 { add_assign(x, n) } else { 0 };
    shr_small(x, 1);
    let k = x.len();
    x[k - 1] |= top << (LIMB_BITS - 1);
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

/// `x ≡ 0`, in Montgomery form as in any other.
fn is_zero(x: &[u64]) -> bool {
    x.iter().all(|&w| w == 0)
}

/// The bits of a normalized odd `n ≥ 3`, checked the way both halves of
/// the primality test need it.
fn odd_modulus_bits(n: &[u64], test: &str) -> u32 {
    let k = n.len();
    assert!(
        k > 0 && n[0] & 1 == 1 && n[k - 1] != 0 && (k > 1 || n[0] >= 3),
        "{test} needs a normalized odd n >= 3"
    );
    k as u32 * LIMB_BITS - n[k - 1].leading_zeros()
}

/// `one_m = R mod n` for an odd `n` of `bits` bits: `2^(bits-1)` is below
/// `n`; double it up to `R = 2^(64k)`. One doubling, `R - n`, when the
/// top bit of the top limb is set.
fn r_mod_n(one_m: &mut [u64], n: &[u64], bits: u32) {
    one_m.fill(0);
    one_m[((bits - 1) / LIMB_BITS) as usize] = 1 << ((bits - 1) % LIMB_BITS);
    for _ in bits - 1..n.len() as u32 * LIMB_BITS {
        double_mod(one_m, n);
    }
}

/// `x = v·R mod n` for a small signed `v`: `|v|` in Montgomery form by
/// doubling and adding `R mod n`, negated for a negative `v`.
fn small_to_mont(x: &mut [u64], v: i64, one_m: &[u64], n: &[u64]) {
    let magnitude = v.unsigned_abs();
    x.fill(0);
    for i in (0..LIMB_BITS - magnitude.leading_zeros()).rev() {
        double_mod(x, n);
        if magnitude >> i & 1 == 1 {
            add_mod(x, one_m, n);
        }
    }
    if v < 0 && !is_zero(x) {
        let mut borrow = 0;
        for (w, &n_j) in x.iter_mut().zip(n) {
            (*w, borrow) = sbb(n_j, *w, borrow);
        }
    }
}

/// One Miller–Rabin round to base 2 for the odd `n ≥ 3` given by its
/// normalized limbs: true iff `2^d ≡ 1` or `2^(d·2^r) ≡ -1 (mod n)` for
/// some `r < s`, where `n - 1 = d·2^s` and `d` is odd. In Montgomery form,
/// multiplying by 2 is a doubling, so `2^d` is squarings and doublings:
/// no `R²`, no window table, no `Ubig`. At the fixed width the three lanes
/// (`R mod n`, the running value, the spare) live on the stack; other
/// widths carve them out of `ws`, which a prime search keeps across
/// candidates.
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
    let bits = odd_modulus_bits(n, "base-2 round");
    let (one_m, rest) = lanes.split_at_mut(k);
    let (mut acc, mut spare) = rest.split_at_mut(k);
    let n_prime = inv_limb_neg(n[0]);
    let bit = |i: u32| n[(i / LIMB_BITS) as usize] >> (i % LIMB_BITS) & 1 == 1;
    r_mod_n(one_m, n, bits);
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

/// The Jacobi symbol `(a/m)` for odd `m`: the binary algorithm, with
/// `(2/m) = -1` for `m ≡ ±3 (mod 8)` and reciprocity's sign flip when
/// both are `3 (mod 4)`.
fn jacobi(mut a: u64, mut m: u64) -> i32 {
    debug_assert!(m & 1 == 1);
    let mut sign = 1;
    a %= m;
    while a != 0 {
        let twos = a.trailing_zeros();
        a >>= twos;
        if twos & 1 == 1 && matches!(m & 7, 3 | 5) {
            sign = -sign;
        }
        if a & 3 == 3 && m & 3 == 3 {
            sign = -sign;
        }
        (a, m) = (m % a, a);
    }
    if m == 1 {
        sign
    } else {
        0
    }
}

/// Once Selfridge's search reaches this `|D|` it asks whether `n` is a
/// perfect square, for which no `D` gives `(D/n) = -1`. A non-square
/// almost never gets this far: half of all `n` stop at `D = 5`, and each
/// further try stops about half of the rest.
const SQUARE_CHECK_AT: u64 = 65;

/// Selfridge's parameter for `n`: the first `D` of 5, -7, 9, -11, 13, …
/// with `(D/n) = -1`. `Err` carries the verdict on `n` when the search
/// decides it instead: `(D/n) = 0` means `n` shares a factor with `|D|`,
/// and a perfect square has no such `D`.
fn selfridge_d(n: &Ubig) -> Result<i64, bool> {
    let mut abs_d = 5u64;
    loop {
        // Every D in the sequence is 1 (mod 4), so reciprocity gives
        // (D/n) = (n/|D|) whatever the signs: no correction is needed.
        match jacobi(n.rem_limb(abs_d), abs_d) {
            -1 => {
                let d = abs_d as i64;
                return Ok(if abs_d & 3 == 3 { -d } else { d });
            }
            // Every odd prime is some |D|, and no earlier |D| shared a
            // factor with n, so n = |D| is prime — unless it is 9 = 3².
            0 => return Err(n.to_u64() == Some(abs_d) && abs_d != 9),
            _ if abs_d == SQUARE_CHECK_AT && is_square(n) => return Err(false),
            _ => abs_d += 2,
        }
    }
}

/// Whether `n` is a perfect square: Newton's iteration for `⌊√n⌋`,
/// falling from `2^⌈bits/2⌉`. It allocates, but runs only for the rare
/// `n` that [`SQUARE_CHECK_AT`] lets through.
fn is_square(n: &Ubig) -> bool {
    let mut root = Ubig::one() << n.bit_len().div_ceil(2);
    loop {
        let next = (&root + &(n / &root)) >> 1;
        if next >= root {
            return &root * &root == *n;
        }
        root = next;
    }
}

/// The strong Lucas probable-prime test with Selfridge's parameters
/// (Baillie and Wagstaff, "Lucas pseudoprimes", Math. Comp. 35, 1980;
/// FIPS 186-4 C.3.3) for an odd `n ≥ 3`: `P = 1` and `Q = (1 - D)/4` for
/// the `D` of `selfridge_d`. With `n + 1 = d·2^s`, `d` odd, `n` passes iff
/// `U_d ≡ 0` or `V_(d·2^r) ≡ 0 (mod n)` for some `r < s`. A prime always
/// passes, and no composite is known to pass both this and the base-2
/// round. Lanes as for the base-2 round: on the stack at the fixed width,
/// in `ws` at every other.
pub(crate) fn is_strong_lucas_probable_prime(n: &Ubig, ws: &mut Vec<u64>) -> bool {
    let d = match selfridge_d(n) {
        Ok(d) => d,
        Err(verdict) => return verdict,
    };
    let n = n.limbs();
    let k = n.len();
    if k == FIXED_LIMBS {
        lucas_round(n, d, &mut [0; 6 * FIXED_LIMBS])
    } else {
        ws.clear();
        ws.resize(6 * k, 0);
        lucas_round(n, d, ws)
    }
}

/// [`is_strong_lucas_probable_prime`] for parameter `d` over `6k` limbs
/// of scratch. Left to right over `d`'s bits, from `U_1 = V_1 = 1`:
/// `U_2j = U_j·V_j` and `V_2j = V_j² - 2Q^j`; a set bit then steps to
/// `U_2j+1 = (U_2j + V_2j)/2` and `V_2j+1 = (D·U_2j + V_2j)/2`.
fn lucas_round(n: &[u64], d: i64, lanes: &mut [u64]) -> bool {
    let k = n.len();
    let bits = odd_modulus_bits(n, "Lucas test");
    let (mut spare, rest) = lanes.split_at_mut(k);
    let (d_m, rest) = rest.split_at_mut(k);
    let (q_m, rest) = rest.split_at_mut(k);
    let (mut u, rest) = rest.split_at_mut(k);
    let (mut v, mut q_k) = rest.split_at_mut(k);
    let n_prime = inv_limb_neg(n[0]);
    let bit = |i: u32| n[(i / LIMB_BITS) as usize] >> (i % LIMB_BITS) & 1 == 1;
    // R mod n is 1 in Montgomery form: U_1 and V_1. D and Q are built
    // from it; then its lane is the spare.
    r_mod_n(spare, n, bits);
    small_to_mont(d_m, d, spare, n);
    small_to_mont(q_m, (1 - d) / 4, spare, n);
    u.copy_from_slice(spare);
    v.copy_from_slice(spare);
    q_k.copy_from_slice(q_m);
    // n + 1 = d·2^s: n's s trailing ones carry into the zero above them.
    // So d's lowest bit is set and its bit j > 0 is n's bit s + j; d is
    // 1 when n is all ones.
    let mut s = 1;
    while s < bits && bit(s) {
        s += 1;
    }
    let d_bits = bits.saturating_sub(s);
    for j in (0..d_bits.saturating_sub(1)).rev() {
        mont_mul(spare, u, v, n, n_prime);
        core::mem::swap(&mut u, &mut spare);
        mont_mul(spare, v, v, n, n_prime);
        core::mem::swap(&mut v, &mut spare);
        sub_mod(v, q_k, n);
        sub_mod(v, q_k, n);
        mont_mul(spare, q_k, q_k, n, n_prime);
        core::mem::swap(&mut q_k, &mut spare);
        if j == 0 || bit(s + j) {
            mont_mul(spare, d_m, u, n, n_prime);
            add_mod(u, v, n);
            half_mod(u, n);
            add_mod(v, spare, n);
            half_mod(v, n);
            mont_mul(spare, q_k, q_m, n, n_prime);
            core::mem::swap(&mut q_k, &mut spare);
        }
    }
    if is_zero(u) || is_zero(v) {
        return true;
    }
    for _ in 1..s {
        mont_mul(spare, v, v, n, n_prime);
        core::mem::swap(&mut v, &mut spare);
        sub_mod(v, q_k, n);
        sub_mod(v, q_k, n);
        if is_zero(v) {
            return true;
        }
        mont_mul(spare, q_k, q_k, n, n_prime);
        core::mem::swap(&mut q_k, &mut spare);
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

    /// A zeroed scratch buffer for one exponentiation: window table and
    /// two accumulators.
    fn workspace(&self) -> Vec<u64> {
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

    /// The textbook round to base 2 over the division-based
    /// [`naive_modpow`]: no Montgomery kernel, no lanes.
    fn textbook_round_to_base_two(n: &Ubig) -> bool {
        let n_minus_1 = n - &Ubig::one();
        let s = n_minus_1.trailing_zeros();
        let mut x = naive_modpow(&u(2), &(n_minus_1.clone() >> s), n);
        if x.is_one() || x == n_minus_1 {
            return true;
        }
        (1..s).any(|_| {
            x = (&x * &x).div_rem(n).1;
            x == n_minus_1
        })
    }

    /// Both rounds' verdict on `n`, which must agree.
    fn base_two_verdict(n: &Ubig, ws: &mut Vec<u64>) -> bool {
        let stack = is_base_two_strong_probable_prime(n.limbs(), ws);
        assert_eq!(stack, textbook_round_to_base_two(n), "n = {n}");
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

    fn is_composite(n: u64) -> bool {
        (2..n)
            .take_while(|d| d * d <= n)
            .any(|d| n.is_multiple_of(d))
    }

    #[test]
    fn base_two_round_matches_the_textbook_round() {
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
            .filter(|&n| is_composite(n))
            .collect::<Vec<_>>();
        assert_eq!(liars, [2047, 3277, 4033, 4681]);
    }

    /// The same comparison over 100,000 candidates drawn as
    /// `gen_prime(256)` draws them.
    #[test]
    #[ignore]
    fn base_two_round_matches_the_textbook_round_over_100k_candidates() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(100_000);
        let mut ws = Vec::new();
        let passed = (0..100_000)
            .filter(|_| base_two_verdict(&candidate_256(&mut rng), &mut ws))
            .count();
        assert!((900..1_400).contains(&passed), "{passed} of 100,000 passed");
    }

    /// `(a/p)` for an odd prime `p` by Euler's criterion, `a^((p-1)/2)`.
    fn legendre(a: u64, p: u64) -> i32 {
        match naive_modpow(&u(a), &u((p - 1) / 2), &u(p)).to_u64() {
            Some(0) => 0,
            Some(1) => 1,
            _ => -1,
        }
    }

    #[test]
    fn jacobi_is_the_product_of_legendre_symbols_over_the_factors() {
        for m in (3..400u64).step_by(2) {
            for a in 0..500 {
                let (mut rest, mut expect) = (m, 1);
                for p in (3..=m).step_by(2) {
                    while rest % p == 0 {
                        expect *= legendre(a, p);
                        rest /= p;
                    }
                }
                assert_eq!(jacobi(a, m), expect, "({a}/{m})");
            }
        }
    }

    /// `(d/n)` over `Ubig` by the general rules: `(-1/n)` for a negative
    /// `d`, then halving and reciprocity.
    fn textbook_jacobi(d: i64, n: &Ubig) -> i32 {
        let mut sign = if d < 0 && n.rem_limb(4) == 3 { -1 } else { 1 };
        let mut a = &u(d.unsigned_abs()) % n;
        let mut m = n.clone();
        while !a.is_zero() {
            while a.is_even() {
                a = a >> 1;
                if matches!(m.rem_limb(8), 3 | 5) {
                    sign = -sign;
                }
            }
            if a.rem_limb(4) == 3 && m.rem_limb(4) == 3 {
                sign = -sign;
            }
            (a, m) = (&m % &a, a);
        }
        if m.is_one() {
            sign
        } else {
            0
        }
    }

    /// `x·y mod n` for two-by-two matrices over `Ubig`.
    fn mat_mul(x: &[[Ubig; 2]; 2], y: &[[Ubig; 2]; 2], n: &Ubig) -> [[Ubig; 2]; 2] {
        let entry = |i: usize, j: usize| &(&(&x[i][0] * &y[0][j]) + &(&x[i][1] * &y[1][j])) % n;
        [[entry(0, 0), entry(0, 1)], [entry(1, 0), entry(1, 1)]]
    }

    /// The strong Lucas test from its definition, over `Ubig` and with no
    /// halving: Selfridge's `D` by [`textbook_jacobi`], then powers of
    /// `M = [[P, -Q], [1, 0]]`, whose `m`-th power has first column
    /// `(U_(m+1), U_m)`, so that `V_m = 2·U_(m+1) - P·U_m`. Loops forever
    /// on a perfect square with no factor below its root's: keep those
    /// out.
    fn textbook_lucas(n: &Ubig) -> bool {
        let mut d = 5i64;
        loop {
            match textbook_jacobi(d, n) {
                -1 => break,
                0 => {
                    let abs_d = d.unsigned_abs();
                    return n.to_u64() == Some(abs_d) && !is_composite(abs_d);
                }
                _ => d = if d > 0 { -(d + 2) } else { 2 - d },
            }
        }
        let signed = |v: i64| {
            let m = &u(v.unsigned_abs()) % n;
            if v < 0 && !m.is_zero() {
                n - &m
            } else {
                m
            }
        };
        let (one, zero) = (Ubig::one(), Ubig::zero());
        let m = [
            [signed(1), signed((d - 1) / 4)],
            [one.clone(), zero.clone()],
        ];
        let n_plus_1 = n + &one;
        let s = n_plus_1.trailing_zeros();
        let exp = n_plus_1 >> s;
        let mut power = [[one.clone(), zero.clone()], [zero, one]];
        for i in (0..exp.bit_len()).rev() {
            power = mat_mul(&power, &power, n);
            if exp.bit(i) {
                power = mat_mul(&power, &m, n);
            }
        }
        let v_is_zero = |power: &[[Ubig; 2]; 2]| {
            let two_u_next = &(&power[0][0] + &power[0][0]) % n;
            two_u_next == power[1][0]
        };
        if power[1][0].is_zero() || v_is_zero(&power) {
            return true;
        }
        (1..s).any(|_| {
            power = mat_mul(&power, &power, n);
            v_is_zero(&power)
        })
    }

    /// Both Lucas tests' verdict on `n`, which must agree.
    fn lucas_verdict(n: &Ubig, ws: &mut Vec<u64>) -> bool {
        let lanes = is_strong_lucas_probable_prime(n, ws);
        assert_eq!(lanes, textbook_lucas(n), "n = {n}");
        lanes
    }

    #[test]
    fn lucas_test_matches_its_definition() {
        use crate::prime::gen_prime;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(3);
        let mut ws = Vec::new();
        // Every odd number from 3 up to the third strong Lucas
        // pseudoprime, 10877.
        for n in (3..11_000u64).step_by(2) {
            lucas_verdict(&u(n), &mut ws);
        }
        // Primes at every width pass; products of two primes fail.
        for bits in [256, 256, 192, 100, 320, 512] {
            let p = gen_prime(bits, &mut rng);
            assert!(lucas_verdict(&p, &mut ws), "prime {p}");
            let pq = &gen_prime(bits / 2, &mut rng) * &gen_prime(bits / 2, &mut rng);
            assert!(!lucas_verdict(&pq, &mut ws), "p·q = {pq}");
        }
    }

    /// Each half of Baillie–PSW catches what the other lets through.
    #[test]
    fn each_half_rejects_the_other_halfs_pseudoprimes() {
        let mut ws = Vec::new();
        // The strong pseudoprimes to base 2 below 5,000, and one that is
        // also strong to the eight other primes up to 23.
        for n in [2047u64, 3277, 4033, 4681, 3825123056546413051] {
            assert!(is_base_two_strong_probable_prime(&[n], &mut ws), "{n}");
            assert!(!is_strong_lucas_probable_prime(&u(n), &mut ws), "{n}");
        }
        // The first strong Lucas pseudoprimes (OEIS A217255).
        for n in [5459u64, 5777, 10877] {
            assert!(is_strong_lucas_probable_prime(&u(n), &mut ws), "{n}");
            assert!(!is_base_two_strong_probable_prime(&[n], &mut ws), "{n}");
        }
    }

    /// The composites below 100,000 that pass the Lucas test are exactly
    /// the strong Lucas pseudoprimes of OEIS A217255.
    #[test]
    fn strong_lucas_pseudoprimes_below_100k_are_oeis_a217255() {
        let mut ws = Vec::new();
        let liars = (3..100_000u64)
            .step_by(2)
            .filter(|&n| is_strong_lucas_probable_prime(&u(n), &mut ws))
            .filter(|&n| is_composite(n))
            .collect::<Vec<_>>();
        assert_eq!(
            liars,
            [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]
        );
    }

    /// The Lucas test against its definition on every odd number below
    /// 2^18, on 2,000 candidates drawn as `gen_prime(256)` draws them and
    /// on primes and products of two primes across widths.
    #[test]
    #[ignore]
    fn lucas_test_matches_its_definition_over_a_sweep() {
        use crate::prime::gen_prime;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(18);
        let mut ws = Vec::new();
        let passed = (3..1u64 << 18)
            .step_by(2)
            .filter(|&n| lucas_verdict(&u(n), &mut ws))
            .count();
        // The 22,999 odd primes below 2^18 and its 30 strong Lucas
        // pseudoprimes.
        assert_eq!(passed, 22_999 + 30);
        for _ in 0..2_000 {
            lucas_verdict(&candidate_256(&mut rng), &mut ws);
        }
        for bits in [64, 100, 128, 192, 256, 320, 384, 512] {
            for _ in 0..16 {
                let p = gen_prime(bits, &mut rng);
                assert!(lucas_verdict(&p, &mut ws), "prime {p}");
                let pq = &gen_prime(bits / 2, &mut rng) * &gen_prime(bits / 2, &mut rng);
                assert!(!lucas_verdict(&pq, &mut ws), "p·q = {pq}");
            }
        }
    }

    /// A perfect square has no `D` with `(D/n) = -1`: the search must
    /// refuse it rather than run on. Checked on a thread, so that a
    /// search that never ends fails the test instead of hanging it.
    #[test]
    fn perfect_squares_end_the_d_search() {
        use crate::prime::gen_prime;
        use rand::SeedableRng;
        let p = gen_prime(128, &mut rand_chacha::ChaCha12Rng::seed_from_u64(128));
        let squares = [
            &p * &p,
            u(1009 * 1009),
            u(9),
            u(25),
            u(3 * 3 * 5 * 5 * 7 * 7),
        ];
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut ws = Vec::new();
            for n in &squares {
                let _ = tx.send((n.clone(), is_strong_lucas_probable_prime(n, &mut ws)));
            }
        });
        for _ in 0..5 {
            let (n, verdict) = rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("the D search did not end"));
            assert!(!verdict, "the square {n} passed");
        }
        assert!(is_square(&(&p * &p)) && !is_square(&(&(&p * &p) - &Ubig::one())));
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
