//! The commutative-semiring abstraction behind model counting.
//!
//! Counting, weighted counting, and probability are the *same* bottom-up
//! traversal of a deterministic decomposable representation, differing only
//! in the carrier: determinism makes ∨ a semiring `+`, decomposability makes
//! ∧ a semiring `×`. `sdd::FrozenSdd::evaluate` is written once against
//! [`Semiring`] and instantiated at the carriers below.
//!
//! The zoo currently holds five members: the three counting carriers
//! ([`Nat`], [`Rat`], [`F64`]) plus two serving-layer carriers —
//! [`LogF64`] (log-space sum-product: WMC that cannot underflow, the
//! carrier `kb::KbSession` evaluates in) and [`MaxPlus`] (tropical
//! max-sum over log-weights: the MPE semiring, whose `⊕` picks the best
//! branch instead of accumulating all of them).

use crate::biguint::BigUint;
use crate::rational::Rational;

/// A commutative semiring `(⊕, ⊗, 0, 1)`.
///
/// Implementors are *descriptors* (usually zero-sized), not the element type
/// itself, so one element type can carry several semiring structures (e.g.
/// max-plus over `f64` alongside plus-times).
pub trait Semiring {
    /// The carrier.
    type Elem: Clone + std::fmt::Debug;

    /// Additive identity.
    fn zero(&self) -> Self::Elem;
    /// Multiplicative identity.
    fn one(&self) -> Self::Elem;
    /// `a ⊕ b` (disjoint union of models).
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// `a ⊗ b` (cartesian product of models).
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
}

/// Exact natural-number counting: `(+, ×)` over [`BigUint`]. The #SAT
/// semiring — never overflows.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Nat;

impl Semiring for Nat {
    type Elem = BigUint;

    fn zero(&self) -> BigUint {
        BigUint::zero()
    }

    fn one(&self) -> BigUint {
        BigUint::one()
    }

    fn add(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.add(b)
    }

    fn mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        a.mul(b)
    }
}

/// Exact weighted counting: `(+, ×)` over [`Rational`]. The WMC /
/// probability semiring without rounding error.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Rat;

impl Semiring for Rat {
    type Elem = Rational;

    fn zero(&self) -> Rational {
        Rational::zero()
    }

    fn one(&self) -> Rational {
        Rational::one()
    }

    fn add(&self, a: &Rational, b: &Rational) -> Rational {
        a.add(b)
    }

    fn mul(&self, a: &Rational, b: &Rational) -> Rational {
        a.mul(b)
    }
}

/// The fast approximate path: `(+, ×)` over `f64`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct F64;

impl Semiring for F64 {
    type Elem = f64;

    fn zero(&self) -> f64 {
        0.0
    }

    fn one(&self) -> f64 {
        1.0
    }

    fn add(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }

    fn mul(&self, a: &f64, b: &f64) -> f64 {
        a * b
    }
}

/// Log-space weighted counting: elements are **logarithms** of nonnegative
/// weights, `⊗` is `+`, and `⊕` is log-sum-exp. Semantically identical to
/// [`F64`] under `exp`, but a product of 10k literal weights that would
/// underflow `f64` (anything below ~1e-308) stays a perfectly ordinary
/// log-weight here. `zero() = -∞` (log 0), `one() = 0` (log 1).
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct LogF64;

/// `ln(eᵃ + eᵇ)` without leaving log space: factor out the larger operand
/// so the exponential never overflows and only the (≤ 1) ratio is rounded.
///
/// The `exp`/`ln_1p` pair is hand-rolled (`exp_neg`, `ln_1p_unit`)
/// rather than delegated to libm: this is the single hottest scalar
/// operation in the serving layer (every ⊕ of every log-space sweep), and
/// the restricted domains — `lo - hi ≤ 0`, `exp(lo - hi) ∈ [0, 1]` — admit
/// short branch-free polynomial kernels the compiler can inline and keep
/// in registers across the batched lane loops. The kernels are exact at
/// the semiring identities (`lse(-∞, w) = w` bit-for-bit) and a few ulp
/// elsewhere, far inside every numeric tolerance in the workspace.
///
/// The scalar entry point is the `W = 1` instantiation of
/// `log_sum_exp_w`, the width-generic kernel the batched lane loops run
/// at `W = 8` — one definition, so the bit-identity of batched and scalar
/// sweeps is structural, not a matter of keeping two bodies in sync.
#[inline]
pub fn log_sum_exp(a: f64, b: f64) -> f64 {
    log_sum_exp_w(&[a], &[b])[0]
}

/// Width-generic [`log_sum_exp`]: `out[i] = lse(a[i], b[i])`, every lane
/// the exact scalar operation sequence.
///
/// Written *stage-wise* — each tiny `for i in 0..W` loop applies one step
/// of the kernel across the whole array — because that is the shape the
/// loop vectorizer reliably turns into packed instructions: a single loop
/// carrying the full ~50-op kernel body (two selects, a division, bit
/// casts) exceeds its cost model and compiles to scalar code, which is
/// exactly what the lane sweeps cannot afford. Lanes never interact, so
/// staging changes instruction *scheduling* across lanes, not any lane's
/// dataflow: per lane the values are bit-identical to the scalar kernel.
/// When both operands of a lane are -∞ the speculative arithmetic runs
/// through NaN (`lo - hi` is `-∞ - -∞`); the final select discards it.
#[inline(always)]
fn log_sum_exp_w<const W: usize>(a: &[f64; W], b: &[f64; W]) -> [f64; W] {
    let mut hi = [0.0f64; W];
    let mut x = [0.0f64; W];
    for i in 0..W {
        let (p, q) = (a[i], b[i]);
        hi[i] = if p >= q { p } else { q };
        let lo = if p >= q { q } else { p };
        x[i] = lo - hi[i];
    }
    let u = exp_neg_w(&x);
    let l1 = ln_1p_unit_w(&u);
    let mut out = [0.0f64; W];
    for i in 0..W {
        let v = hi[i] + l1[i];
        out[i] = if hi[i] == f64::NEG_INFINITY {
            // Both are log 0; hi + anything would be NaN.
            f64::NEG_INFINITY
        } else {
            v
        };
    }
    out
}

/// `exp(x)` for `x ≤ 0`, flushing to 0 below the `f64` underflow floor
/// (which also maps `x = -∞`, the log-0 operand of [`log_sum_exp`], to an
/// exact 0). Argument reduction `x = k·ln2 + r`, `|r| ≤ ln2/2`, with the
/// round-to-even shift trick for `k`, a degree-13 Taylor polynomial for
/// `eʳ` (Estrin-grouped so the dependency chain is ~4 multiplies, not 13),
/// and an exponent-field scale by `2ᵏ`. Max relative error ≈ 1 ulp over
/// the domain; `exp_neg(0) = 1` exactly.
#[cfg(test)]
#[inline]
fn exp_neg(x: f64) -> f64 {
    exp_neg_w(&[x])[0]
}

/// Width-generic [`exp_neg`] (see [`log_sum_exp_w`] for why the kernel is
/// staged across small fixed-width loops).
#[inline(always)]
fn exp_neg_w<const W: usize>(x: &[f64; W]) -> [f64; W] {
    const INV_LN2: f64 = std::f64::consts::LOG2_E;
    // ln2 split hi/lo so `x - k·ln2` is computed to ~2^-100.
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // 1.5·2^52: adding then subtracting rounds to the nearest integer
    // (ties to even) without a branch or a cast.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    let mut t = [0.0f64; W];
    for i in 0..W {
        t[i] = x[i] * INV_LN2 + SHIFT;
    }
    let mut r = [0.0f64; W];
    for i in 0..W {
        let kd = t[i] - SHIFT;
        r[i] = (x[i] - kd * LN2_HI) - kd * LN2_LO;
    }
    let mut out = [0.0f64; W];
    for i in 0..W {
        // eʳ for |r| ≤ 0.3466 by the Taylor series through r¹³/13!; the
        // truncated tail is < 5e-18, below half an ulp of the ≥ 0.7
        // result.
        let r1 = r[i];
        let r2 = r1 * r1;
        let r4 = r2 * r2;
        let q0 = (1.0 + r1) + r2 * (0.5 + r1 * (1.0 / 6.0));
        let q1 = (1.0 / 24.0) + r1 * (1.0 / 120.0) + r2 * ((1.0 / 720.0) + r1 * (1.0 / 5_040.0));
        let q2 = (1.0 / 40_320.0)
            + r1 * (1.0 / 362_880.0)
            + r2 * ((1.0 / 3_628_800.0) + r1 * (1.0 / 39_916_800.0));
        let q3 = (1.0 / 479_001_600.0) + r1 * (1.0 / 6_227_020_800.0);
        let p = q0 + r4 * (q1 + r4 * (q2 + r4 * q3));
        // Scale by 2^k through the exponent field: k ∈ [-1021, 0] keeps
        // the constructed scale a normal number. `k` is read out of `t`'s
        // low mantissa bits (the shift trick leaves `2^51 + k` there,
        // exactly, for |k| < 2^51) — integer ops instead of an
        // `f64 → i64` cast, which keeps the whole kernel a straight line
        // of vectorizable instructions. Out-of-range inputs (x < -708,
        // -∞, the speculative NaN from `log_sum_exp`) wrap to garbage
        // bits here; the final select flushes them to the exact 0 the
        // flush rule demands.
        let k = (t[i].to_bits() & ((1u64 << 52) - 1)) as i64 - (1i64 << 51);
        let scale = f64::from_bits((1023i64.wrapping_add(k) as u64) << 52);
        let v = p * scale;
        out[i] = if x[i] < -708.0 {
            // exp(-708) < 2^-1021: at or below here the contribution to
            // log_sum_exp is sub-ulp anyway, and flushing keeps the 2^k
            // scale in the normal range (k ≥ -1021).
            0.0
        } else {
            v
        };
    }
    out
}

/// `ln(1 + u)` for `u ∈ [0, 1]` — the ratio range [`log_sum_exp`] feeds
/// it. Uses `ln(1+u) = 2·artanh(s)` with `s = u/(2+u) ∈ [0, ⅓]`, whose
/// odd series converges fast enough that 15 terms put the truncated tail
/// below 2e-17 relative. `ln_1p_unit(0) = 0` exactly, so the semiring
/// identity `lse(-∞, w) = w` holds bit-for-bit.
#[cfg(test)]
#[inline]
fn ln_1p_unit(u: f64) -> f64 {
    ln_1p_unit_w(&[u])[0]
}

/// Width-generic [`ln_1p_unit`] (see [`log_sum_exp_w`] for why the kernel
/// is staged across small fixed-width loops).
#[inline(always)]
fn ln_1p_unit_w<const W: usize>(u: &[f64; W]) -> [f64; W] {
    let mut s = [0.0f64; W];
    for i in 0..W {
        s[i] = u[i] / (2.0 + u[i]);
    }
    let mut out = [0.0f64; W];
    for i in 0..W {
        let s1 = s[i];
        let z = s1 * s1;
        // P(z) = Σₖ₌₁..₁₅ 2/(2k+1)·z^(k-1), Estrin-grouped by 4.
        let z2 = z * z;
        let z4 = z2 * z2;
        let p0 = (2.0 / 3.0) + z * (2.0 / 5.0) + z2 * ((2.0 / 7.0) + z * (2.0 / 9.0));
        let p1 = (2.0 / 11.0) + z * (2.0 / 13.0) + z2 * ((2.0 / 15.0) + z * (2.0 / 17.0));
        let p2 = (2.0 / 19.0) + z * (2.0 / 21.0) + z2 * ((2.0 / 23.0) + z * (2.0 / 25.0));
        let p3 = (2.0 / 27.0) + z * (2.0 / 29.0) + z2 * (2.0 / 31.0);
        let p = p0 + z4 * (p1 + z4 * (p2 + z4 * p3));
        out[i] = 2.0 * s1 + s1 * (z * p);
    }
    out
}

impl Semiring for LogF64 {
    type Elem = f64;

    fn zero(&self) -> f64 {
        f64::NEG_INFINITY
    }

    fn one(&self) -> f64 {
        0.0
    }

    fn add(&self, a: &f64, b: &f64) -> f64 {
        log_sum_exp(*a, *b)
    }

    fn mul(&self, a: &f64, b: &f64) -> f64 {
        // log 0 absorbs: -∞ + w. (-∞ + ∞ cannot arise — weights are logs
        // of finite nonnegative reals, so +∞ is never an element.)
        a + b
    }
}

/// The tropical **max-plus** semiring over log-weights: `⊕` is `max`, `⊗`
/// is `+`. Evaluating a deterministic decomposable circuit here computes
/// the log-weight of the **most probable explanation** (MPE): where the
/// sum-product engine accumulates every branch, max-plus keeps the best
/// one, and decomposability adds the best left- and right-scope choices.
/// `kb` reruns the same traversal with argmax back-pointers to recover the
/// witnessing assignment. `zero() = -∞` (no model), `one() = 0`.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct MaxPlus;

impl Semiring for MaxPlus {
    type Elem = f64;

    fn zero(&self) -> f64 {
        f64::NEG_INFINITY
    }

    fn one(&self) -> f64 {
        0.0
    }

    fn add(&self, a: &f64, b: &f64) -> f64 {
        a.max(*b)
    }

    fn mul(&self, a: &f64, b: &f64) -> f64 {
        a + b
    }
}

/// Batched (struct-of-arrays) semiring operations over contiguous *lanes*.
///
/// A lane column holds one element per batch member, laid out contiguously
/// (`vals[gate * lanes + l]` in the sweeps that use it). Every method is
/// **definitionally** the scalar [`Semiring`] operation applied lane by
/// lane — the default bodies below are the specification — so a batched
/// sweep is bit-identical per lane to the scalar sweep it replaces. A
/// carrier may override a method only with a body that computes the same
/// per-lane values: [`LogF64`] routes `⊕` through the width-8 instantiation
/// of the *same* `log_sum_exp_w` kernel the scalar path runs at width 1
/// (dispatched to AVX2/AVX-512 code paths when the CPU has them), which
/// turns the hottest loop of a batched sweep into packed instructions
/// while preserving each lane's exact operation sequence.
///
/// Scalar evaluation is exactly the `lanes = 1` instantiation: a 1-element
/// column runs each loop once, calling the same scalar op.
pub trait LaneSemiring: Semiring {
    /// Fill `out` with the additive identity.
    fn zero_fill(&self, out: &mut [Self::Elem]) {
        for x in out.iter_mut() {
            *x = self.zero();
        }
    }

    /// Fill `out` with the multiplicative identity.
    fn one_fill(&self, out: &mut [Self::Elem]) {
        for x in out.iter_mut() {
            *x = self.one();
        }
    }

    /// `acc[l] = acc[l] ⊕ rhs[l]` — accumulator on the left, matching the
    /// scalar sweeps' fold order.
    fn add_assign_lanes(&self, acc: &mut [Self::Elem], rhs: &[Self::Elem]) {
        for (a, b) in acc.iter_mut().zip(rhs) {
            *a = self.add(a, b);
        }
    }

    /// `acc[l] = acc[l] ⊗ rhs[l]` — accumulator on the left.
    fn mul_assign_lanes(&self, acc: &mut [Self::Elem], rhs: &[Self::Elem]) {
        for (a, b) in acc.iter_mut().zip(rhs) {
            *a = self.mul(a, b);
        }
    }

    /// `out[l] = a[l] ⊗ b[l]`.
    fn mul_lanes_into(&self, out: &mut [Self::Elem], a: &[Self::Elem], b: &[Self::Elem]) {
        for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
            *o = self.mul(x, y);
        }
    }
}

impl LaneSemiring for Nat {}
impl LaneSemiring for Rat {}
impl LaneSemiring for F64 {}

impl LaneSemiring for MaxPlus {
    /// `acc[l] = max(acc[l], rhs[l])` through the width-8 blocked kernel.
    /// `f64::max` and `+` are single IEEE-754 operations, so the packed
    /// forms are trivially bit-identical to the default per-lane bodies.
    fn add_assign_lanes(&self, acc: &mut [f64], rhs: &[f64]) {
        max_assign_lanes(acc, rhs);
    }

    /// Tropical `⊗`: `acc[l] = acc[l] + rhs[l]`, width-8 blocked.
    fn mul_assign_lanes(&self, acc: &mut [f64], rhs: &[f64]) {
        tropical_mul_assign_lanes(acc, rhs);
    }

    /// Tropical `⊗` into a fresh column: `out[l] = a[l] + b[l]`.
    fn mul_lanes_into(&self, out: &mut [f64], a: &[f64], b: &[f64]) {
        tropical_mul_lanes_into(out, a, b);
    }
}

impl LaneSemiring for LogF64 {
    /// `acc[l] = lse(acc[l], rhs[l])` through the width-8 kernel — the
    /// same `log_sum_exp_w` the scalar `add` instantiates at width 1,
    /// so every lane's value is bit-identical to the default body.
    fn add_assign_lanes(&self, acc: &mut [f64], rhs: &[f64]) {
        lse_assign_lanes(acc, rhs);
    }
}

/// Block width of the batched [`log_sum_exp_w`] instantiation: one
/// AVX-512 register (or two AVX2 registers) of `f64` lanes.
const LANE_BLOCK: usize = 8;

/// `acc[l] = lse(acc[l], rhs[l])` over whole slices, in width-8 blocks
/// with a scalar tail. `#[inline(always)]` so the `#[target_feature]`
/// wrappers below recompile this exact body with wider vector ISAs.
#[inline(always)]
fn lse_assign_body(acc: &mut [f64], rhs: &[f64]) {
    debug_assert_eq!(acc.len(), rhs.len());
    let mut ac = acc.chunks_exact_mut(LANE_BLOCK);
    let mut rc = rhs.chunks_exact(LANE_BLOCK);
    for (a, b) in ac.by_ref().zip(rc.by_ref()) {
        let a: &mut [f64; LANE_BLOCK] = a.try_into().unwrap();
        let b: &[f64; LANE_BLOCK] = b.try_into().unwrap();
        *a = log_sum_exp_w(a, b);
    }
    for (a, b) in ac.into_remainder().iter_mut().zip(rc.remainder()) {
        *a = log_sum_exp(*a, *b);
    }
}

// The `#[target_feature]` wrappers: same body, recompiled with the wider
// ISA enabled, selected once per slice call through the (cached, atomic
// load) `is_x86_feature_detected!` test. Packed IEEE-754 ops round
// identically to their scalar forms and Rust never contracts `a*b + c`
// into an FMA behind the kernel's back, so every tier produces the same
// bits — the dispatch trades nothing but speed. A column shorter than one
// block never reaches a packed instruction, so the dispatchers run the
// inlined body straight away there: a one-lane sweep (every scalar session
// query) then pays no feature test and no out-of-line call per gate.

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lse_assign_avx512(acc: &mut [f64], rhs: &[f64]) {
    lse_assign_body(acc, rhs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lse_assign_avx2(acc: &mut [f64], rhs: &[f64]) {
    lse_assign_body(acc, rhs)
}

#[inline]
fn lse_assign_lanes(acc: &mut [f64], rhs: &[f64]) {
    if acc.len() < LANE_BLOCK {
        return lse_assign_body(acc, rhs);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { lse_assign_avx512(acc, rhs) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { lse_assign_avx2(acc, rhs) };
        }
    }
    lse_assign_body(acc, rhs)
}

// The tropical ([`MaxPlus`]) column kernels: same width-8 blocking and
// `#[target_feature]` dispatch shape as the log-sum-exp kernels above.
// Each lane performs exactly the scalar op (`f64::max` resp. `+`) — one
// IEEE-754 instruction per lane either way — so every tier is bit-identical
// to the default trait bodies by construction.

/// `acc[l] = max(acc[l], rhs[l])` in width-8 blocks with a scalar tail.
#[inline(always)]
fn max_assign_body(acc: &mut [f64], rhs: &[f64]) {
    debug_assert_eq!(acc.len(), rhs.len());
    let mut ac = acc.chunks_exact_mut(LANE_BLOCK);
    let mut rc = rhs.chunks_exact(LANE_BLOCK);
    for (a, b) in ac.by_ref().zip(rc.by_ref()) {
        for i in 0..LANE_BLOCK {
            a[i] = a[i].max(b[i]);
        }
    }
    for (a, b) in ac.into_remainder().iter_mut().zip(rc.remainder()) {
        *a = a.max(*b);
    }
}

/// `acc[l] = acc[l] + rhs[l]` (tropical `⊗`), blocked as above.
#[inline(always)]
fn tropical_mul_assign_body(acc: &mut [f64], rhs: &[f64]) {
    debug_assert_eq!(acc.len(), rhs.len());
    let mut ac = acc.chunks_exact_mut(LANE_BLOCK);
    let mut rc = rhs.chunks_exact(LANE_BLOCK);
    for (a, b) in ac.by_ref().zip(rc.by_ref()) {
        for i in 0..LANE_BLOCK {
            a[i] += b[i];
        }
    }
    for (a, b) in ac.into_remainder().iter_mut().zip(rc.remainder()) {
        *a += *b;
    }
}

/// `out[l] = a[l] + b[l]` (tropical `⊗` into a fresh column).
#[inline(always)]
fn tropical_mul_into_body(out: &mut [f64], a: &[f64], b: &[f64]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    let mut oc = out.chunks_exact_mut(LANE_BLOCK);
    let mut ac = a.chunks_exact(LANE_BLOCK);
    let mut bc = b.chunks_exact(LANE_BLOCK);
    for ((o, x), y) in oc.by_ref().zip(ac.by_ref()).zip(bc.by_ref()) {
        for i in 0..LANE_BLOCK {
            o[i] = x[i] + y[i];
        }
    }
    for ((o, x), y) in oc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *o = x + y;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn max_assign_avx512(acc: &mut [f64], rhs: &[f64]) {
    max_assign_body(acc, rhs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn max_assign_avx2(acc: &mut [f64], rhs: &[f64]) {
    max_assign_body(acc, rhs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tropical_mul_assign_avx512(acc: &mut [f64], rhs: &[f64]) {
    tropical_mul_assign_body(acc, rhs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tropical_mul_assign_avx2(acc: &mut [f64], rhs: &[f64]) {
    tropical_mul_assign_body(acc, rhs)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tropical_mul_into_avx512(out: &mut [f64], a: &[f64], b: &[f64]) {
    tropical_mul_into_body(out, a, b)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tropical_mul_into_avx2(out: &mut [f64], a: &[f64], b: &[f64]) {
    tropical_mul_into_body(out, a, b)
}

#[inline]
fn max_assign_lanes(acc: &mut [f64], rhs: &[f64]) {
    if acc.len() < LANE_BLOCK {
        return max_assign_body(acc, rhs);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { max_assign_avx512(acc, rhs) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { max_assign_avx2(acc, rhs) };
        }
    }
    max_assign_body(acc, rhs)
}

#[inline]
fn tropical_mul_assign_lanes(acc: &mut [f64], rhs: &[f64]) {
    if acc.len() < LANE_BLOCK {
        return tropical_mul_assign_body(acc, rhs);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { tropical_mul_assign_avx512(acc, rhs) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { tropical_mul_assign_avx2(acc, rhs) };
        }
    }
    tropical_mul_assign_body(acc, rhs)
}

#[inline]
fn tropical_mul_lanes_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    if out.len() < LANE_BLOCK {
        return tropical_mul_into_body(out, a, b);
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature was just detected on this CPU.
            return unsafe { tropical_mul_into_avx512(out, a, b) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: as above.
            return unsafe { tropical_mul_into_avx2(out, a, b) };
        }
    }
    tropical_mul_into_body(out, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluate `(x ⊕ y) ⊗ z` generically, then at each carrier.
    fn expr<S: Semiring>(s: &S, x: &S::Elem, y: &S::Elem, z: &S::Elem) -> S::Elem {
        s.mul(&s.add(x, y), z)
    }

    #[test]
    fn generic_expression_at_all_carriers() {
        let n = Nat;
        assert_eq!(
            expr(
                &n,
                &BigUint::from_u64(2),
                &BigUint::from_u64(3),
                &BigUint::from_u64(4)
            ),
            BigUint::from_u64(20)
        );
        let q = Rat;
        assert_eq!(
            expr(
                &q,
                &Rational::parse("1/2").unwrap(),
                &Rational::parse("1/3").unwrap(),
                &Rational::parse("6/5").unwrap()
            ),
            Rational::parse("1").unwrap()
        );
        let f = F64;
        assert_eq!(expr(&f, &2.0, &3.0, &4.0), 20.0);
    }

    #[test]
    fn identities() {
        let n = Nat;
        let five = BigUint::from_u64(5);
        assert_eq!(n.add(&n.zero(), &five), five);
        assert_eq!(n.mul(&n.one(), &five), five);
        assert_eq!(n.mul(&n.zero(), &five), n.zero());
    }

    #[test]
    fn logf64_mirrors_f64_through_exp() {
        let (f, l) = (F64, LogF64);
        for (a, b) in [(0.5, 0.25), (1.0, 1e-12), (3.0, 7.0)] {
            let plain = f.add(&a, &b);
            let logged = l.add(&a.ln(), &b.ln());
            assert!((logged.exp() - plain).abs() < 1e-12 * plain, "{a} ⊕ {b}");
            let plain = f.mul(&a, &b);
            let logged = l.mul(&a.ln(), &b.ln());
            assert!((logged.exp() - plain).abs() < 1e-12 * plain, "{a} ⊗ {b}");
        }
    }

    #[test]
    fn logf64_identities_and_zero_absorption() {
        let l = LogF64;
        let w = (0.3f64).ln();
        assert_eq!(l.mul(&l.one(), &w), w);
        assert_eq!(l.add(&l.zero(), &w), w);
        assert_eq!(l.mul(&l.zero(), &w), f64::NEG_INFINITY);
        // log 0 ⊕ log 0 stays log 0 (not NaN).
        assert_eq!(l.add(&l.zero(), &l.zero()), f64::NEG_INFINITY);
        assert_eq!(l.mul(&l.zero(), &l.zero()), f64::NEG_INFINITY);
    }

    #[test]
    fn logf64_survives_products_that_underflow_f64() {
        // 10 000 factors of 1e-100: f64 hits 0 after ~4 factors short of
        // the denormal floor; the log carrier just reaches -10⁶ ln 10.
        let l = LogF64;
        let w = (1e-100f64).ln();
        let mut acc = l.one();
        for _ in 0..10_000 {
            acc = l.mul(&acc, &w);
        }
        assert!(acc.is_finite());
        assert!((acc - 10_000.0 * w).abs() < 1e-6);
    }

    #[test]
    fn exp_neg_kernel_matches_libm_to_sub_ulp() {
        // Dense deterministic sweep of the whole domain, including the
        // reduction boundaries (half-multiples of ln 2) and the flush edge.
        let mut worst = 0.0f64;
        let mut x = 0.0f64;
        while x >= -708.0 {
            let got = exp_neg(x);
            let want = x.exp();
            let rel = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            worst = worst.max(rel);
            x -= 0.000_7;
        }
        assert!(worst < 1e-15, "worst relative error {worst}");
        assert_eq!(exp_neg(0.0), 1.0);
        assert_eq!(exp_neg(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_neg(-1e9), 0.0);
    }

    #[test]
    fn ln_1p_unit_kernel_matches_libm_to_sub_ulp() {
        let mut worst = 0.0f64;
        let mut u = 0.0f64;
        while u <= 1.0 {
            let got = ln_1p_unit(u);
            let want = u.ln_1p();
            let rel = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            worst = worst.max(rel);
            u += 0.000_013;
        }
        assert!(worst < 1e-15, "worst relative error {worst}");
        assert_eq!(ln_1p_unit(0.0), 0.0);
        assert!((ln_1p_unit(1.0) - 2.0f64.ln()).abs() < 1e-16);
    }

    #[test]
    fn log_sum_exp_stays_accurate_across_magnitude_gaps() {
        for (a, b) in [
            (0.0, 0.0),
            (-1.0, -2.0),
            (3.0, -40.0),
            (-1e4, -1e4 + 0.5),
            (-700.0, -710.0),
            (12.0, 12.0),
        ] {
            let got = log_sum_exp(a, b);
            let hi = a.max(b);
            let want = hi + ((a - hi).exp() + (b - hi).exp()).ln();
            assert!(
                (got - want).abs() <= 1e-13 * want.abs().max(1.0),
                "lse({a}, {b}) = {got}, want {want}"
            );
        }
    }

    /// Lane columns of length `n` straddling the width-8 blocks (so both
    /// the packed kernel and the scalar tail run), with `-∞` mixed in on
    /// either side and, from `n = 24` on, on both sides of one lane.
    fn lane_columns(n: usize) -> (Vec<f64>, Vec<f64>) {
        let a = (0..n)
            .map(|i| {
                if i % 5 == 3 {
                    f64::NEG_INFINITY
                } else {
                    -(i as f64) * 0.37
                }
            })
            .collect();
        let b = (0..n)
            .map(|i| {
                if i % 7 == 2 {
                    f64::NEG_INFINITY
                } else {
                    -(i as f64).sqrt() - 0.11
                }
            })
            .collect();
        (a, b)
    }

    /// Column lengths that hit the short-column path, whole blocks, and
    /// blocks plus a tail.
    const LANE_LENGTHS: [usize; 8] = [1, 7, 8, 9, 16, 31, 64, 65];

    #[test]
    fn lane_ops_are_the_scalar_ops_lane_by_lane() {
        // The defaults are definitional, but pin the contract down with
        // bit-level checks at the carrier the serving layer batches.
        let l = LogF64;
        for n in LANE_LENGTHS {
            let (a, b) = lane_columns(n);
            let mut add = a.clone();
            l.add_assign_lanes(&mut add, &b);
            let mut mul = a.clone();
            l.mul_assign_lanes(&mut mul, &b);
            let mut prod = vec![0.0f64; n];
            l.mul_lanes_into(&mut prod, &a, &b);
            for i in 0..n {
                assert_eq!(
                    add[i].to_bits(),
                    l.add(&a[i], &b[i]).to_bits(),
                    "n={n} i={i}"
                );
                assert_eq!(
                    mul[i].to_bits(),
                    l.mul(&a[i], &b[i]).to_bits(),
                    "n={n} i={i}"
                );
                assert_eq!(
                    prod[i].to_bits(),
                    l.mul(&a[i], &b[i]).to_bits(),
                    "n={n} i={i}"
                );
            }
        }
        let mut zeros = [1.0f64; 3];
        l.zero_fill(&mut zeros);
        assert!(zeros.iter().all(|&z| z == f64::NEG_INFINITY));
        let mut ones = [1.0f64; 3];
        l.one_fill(&mut ones);
        assert!(ones.iter().all(|&o| o == 0.0));
    }

    #[test]
    fn max_plus_picks_the_best_branch() {
        let m = MaxPlus;
        // (x ⊕ y) ⊗ z = max(x, y) + z.
        assert_eq!(expr(&m, &-1.0, &-3.0, &-2.0), -3.0);
        assert_eq!(m.add(&m.zero(), &-5.0), -5.0);
        assert_eq!(m.mul(&m.one(), &-5.0), -5.0);
        assert_eq!(m.mul(&m.zero(), &-5.0), f64::NEG_INFINITY);
    }

    #[test]
    fn max_plus_lane_kernels_match_the_scalar_ops_bit_for_bit() {
        let m = MaxPlus;
        // The tropical zero appears at every unreached gate.
        for n in LANE_LENGTHS {
            let (a, b) = lane_columns(n);
            let mut add = a.clone();
            m.add_assign_lanes(&mut add, &b);
            let mut mul = a.clone();
            m.mul_assign_lanes(&mut mul, &b);
            let mut into = vec![0.0f64; n];
            m.mul_lanes_into(&mut into, &a, &b);
            for i in 0..n {
                assert_eq!(add[i].to_bits(), m.add(&a[i], &b[i]).to_bits());
                assert_eq!(mul[i].to_bits(), m.mul(&a[i], &b[i]).to_bits());
                assert_eq!(into[i].to_bits(), m.mul(&a[i], &b[i]).to_bits());
            }
        }
    }
}
