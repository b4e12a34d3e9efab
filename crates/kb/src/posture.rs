//! The weight-and-evidence table, kept once per serving layer: the
//! builder, the frozen base, the snapshot loader and each session hold one.
//!
//! Conditioning a smooth structured d-DNNF on a literal only zeroes the
//! opposing literal weight, so the whole state is the weight table plus
//! the evidence that pins it. The pin mask is the fold of that evidence,
//! kept dense beside it because every sweep reads it per variable.

use crate::{KbError, Lit};
use vtree::fxhash::FxHashMap;
use vtree::VarId;

/// The polarities a variable's evidence still allows: bit 0 = `¬v`, bit
/// 1 = `v`. Asserting `v := b` clears the other bit, so a variable asserted
/// both ways allows neither.
type Allowed = u8;

/// Dense `(index, polarity)` form of `lits`, or the first unknown
/// variable's error.
pub(crate) fn dense(
    var_index: &FxHashMap<VarId, usize>,
    lits: &[Lit],
) -> Result<Vec<(usize, bool)>, KbError> {
    lits.iter()
        .map(|&(v, b)| match var_index.get(&v) {
            Some(&i) => Ok((i, b)),
            None => Err(KbError::UnknownVariable(v)),
        })
        .collect()
}

/// Weights and evidence over the dense variable index.
#[derive(Clone)]
pub(crate) struct Posture {
    /// Linear-domain weights `(w⁻, w⁺)` per dense variable.
    pub(crate) weights: Vec<(f64, f64)>,
    /// Per dense variable: the polarities the evidence allows.
    pub(crate) allowed: Vec<Allowed>,
    /// The asserted literals that changed `allowed`, in assertion order.
    pub(crate) evidence: Vec<Lit>,
}

impl Posture {
    /// `n` variables at weight `(1, 1)` (counting semantics), no evidence.
    pub(crate) fn new(n: usize) -> Posture {
        Posture {
            weights: vec![(1.0, 1.0); n],
            allowed: vec![0b11; n],
            evidence: Vec::new(),
        }
    }

    /// Set the weight pair of dense variable `i`, which is `v`. Weights
    /// must be nonnegative and finite (the serving layer works in log
    /// space); anything else errors with [`KbError::InvalidWeight`]. A
    /// probability `p` is the pair `(1 - p, p)`, which passes exactly when
    /// `p` is in `[0, 1]`.
    pub(crate) fn set_weights(
        &mut self,
        i: usize,
        v: VarId,
        neg: f64,
        pos: f64,
    ) -> Result<(), KbError> {
        if !(neg >= 0.0 && neg.is_finite() && pos >= 0.0 && pos.is_finite()) {
            return Err(KbError::InvalidWeight(v));
        }
        self.weights[i] = (neg, pos);
        Ok(())
    }

    /// Assert `lit` on its dense variable `i`: clear the opposing
    /// polarity and record the literal. Returns whether the mask changed;
    /// a repeat, or any literal on a variable already asserted both ways,
    /// changes nothing and is not recorded.
    pub(crate) fn assert(&mut self, i: usize, lit: Lit) -> bool {
        let allowed = self.allowed[i] & if lit.1 { 0b10 } else { 0b01 };
        let changed = allowed != self.allowed[i];
        if changed {
            self.allowed[i] = allowed;
            self.evidence.push(lit);
        }
        changed
    }

    /// `pair` for dense variable `i`, with the polarities its evidence
    /// excludes replaced by `zero`.
    pub(crate) fn masked<E: Clone>(&self, i: usize, pair: (E, E), zero: &E) -> (E, E) {
        let allowed = self.allowed[i];
        let keep = |w: E, bit: Allowed| if allowed & bit != 0 { w } else { zero.clone() };
        (keep(pair.0, 0b01), keep(pair.1, 0b10))
    }
}
