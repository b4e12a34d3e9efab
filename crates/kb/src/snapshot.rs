//! Snapshot persistence for the serving tier: [`FrozenKb::save`] /
//! [`FrozenKb::load`].
//!
//! A KB snapshot is a `KIND_KB` container holding the SDD store's three
//! sections (tags 1–3, written by [`sdd::FrozenSdd::write_sections`])
//! followed by four KB sections and the unfolded circuit's four (tags
//! 21–24, written by [`sdd::ac::Ac::write_sections`]):
//!
//! | tag | section  | payload |
//! |-----|----------|---------|
//! | 16  | kbmeta   | `root, root` (the second word is reserved: written as `root`, only bounds-checked on load) |
//! | 17  | vars     | the served [`VarId`]s, defining the dense index |
//! | 18  | weights  | per var in order: `(w⁻, w⁺)` as raw `f64::to_bits` — loads bit-identically |
//! | 19  | evidence | frozen `(var, polarity)` literals, in assertion order |
//! | 21–24 | ac     | the circuit (see [`sdd::snapshot`]) |
//!
//! Tags 4 (the SDD manager's negation memo) and 20 (the evidence pin
//! table) are retired: files from earlier writers carry them, and the
//! loader skips them. The pins were always the fold of the evidence, so
//! such files load to the same answers.
//!
//! The arithmetic circuit is persisted rather than re-unfolded because the
//! unfold is a large share of freeze cost at serving scale, and its CSR
//! buffers load as three straight reads. Derived tables (`var_index`, the
//! pin mask) are rebuilt; provenance is [`KbProvenance::Raw`] — a
//! compilation report is about a compilation, and a load is not one.
//!
//! Loading validates every cross-reference before trusting it: roots in
//! the slab, variables known to the vtree and distinct, weights finite and
//! nonnegative (the check [`crate::KnowledgeBase::set_weights`] runs),
//! evidence literals served and each one changing the pins (no writer
//! records a repeat), AC gates topologically ordered with in-bounds child
//! ranges and leaves matching the dense variable index. Anything else is a
//! typed [`snap::SnapError`].

use crate::posture::Posture;
use crate::{FrozenKb, KbProvenance};
use sdd::ac::Ac;
use sdd::snapshot::{AC_SECTIONS, SDD_SECTIONS};
use sdd::{FrozenSdd, SddId};
use snap::{
    bytes_to_u32_pairs, bytes_to_u32s, bytes_to_u64_pairs, put_u32, put_u64, Dec, Reader,
    SnapError, Writer, KIND_KB,
};
use std::io::{BufRead, Write};
use std::sync::Arc;
use vtree::fxhash::FxHashMap;
use vtree::VarId;

/// Section tag: the KB roots.
pub const TAG_KBMETA: u32 = 16;
/// Section tag: the served variables.
pub const TAG_VARS: u32 = 17;
/// Section tag: the dense weight table.
pub const TAG_WEIGHTS: u32 = 18;
/// Section tag: the frozen evidence.
pub const TAG_EVIDENCE: u32 = 19;
/// Sections in a KB container: the embedded slab's, the KB's own four and
/// the circuit's.
pub const KB_SECTIONS: u32 = SDD_SECTIONS + 4 + AC_SECTIONS;

impl FrozenKb {
    /// Persist this base as a `KIND_KB` container.
    pub fn save<W: Write>(&self, out: W) -> Result<(), SnapError> {
        let mut w = Writer::new(out, KIND_KB, KB_SECTIONS)?;
        self.sdd.write_sections(&mut w)?;

        let mut buf = Vec::with_capacity(8);
        put_u32(&mut buf, self.root.0);
        put_u32(&mut buf, self.root.0);
        w.section(TAG_KBMETA, &buf)?;

        let mut buf = Vec::with_capacity(self.vars.len() * 4);
        for &v in &self.vars {
            put_u32(&mut buf, v.0);
        }
        w.section(TAG_VARS, &buf)?;

        let mut buf = Vec::with_capacity(self.vars.len() * 16);
        for &(wn, wp) in &self.posture.weights {
            put_u64(&mut buf, wn.to_bits());
            put_u64(&mut buf, wp.to_bits());
        }
        w.section(TAG_WEIGHTS, &buf)?;

        let mut buf = Vec::with_capacity(self.posture.evidence.len() * 8);
        for &(v, b) in &self.posture.evidence {
            put_u32(&mut buf, v.0);
            put_u32(&mut buf, b as u32);
        }
        w.section(TAG_EVIDENCE, &buf)?;

        self.ac.write_sections(&mut w)?;
        w.finish()?;
        Ok(())
    }

    /// Load a base back from a `KIND_KB` container, validating everything.
    /// The result answers every query bit-identically to the base that was
    /// saved.
    pub fn load<R: BufRead>(mut input: R) -> Result<FrozenKb, SnapError> {
        let mut r = Reader::new(&mut input, KIND_KB)?;
        let sdd = FrozenSdd::read_sections(&mut r)?;
        let num_nodes = sdd.num_allocated();

        let meta = r.take(TAG_KBMETA)?;
        let mut d = Dec::new(&meta, "kbmeta section");
        let root = SddId(d.u32()?);
        let reserved = d.u32()?;
        d.done()?;
        if root.0 as usize >= num_nodes || reserved as usize >= num_nodes {
            return Err(SnapError::Invalid {
                what: "kb root out of bounds",
            });
        }

        let vars: Vec<VarId> = bytes_to_u32s(&r.take(TAG_VARS)?, "vars section ragged")?
            .into_iter()
            .map(VarId)
            .collect();
        let mut var_index: FxHashMap<VarId, usize> = FxHashMap::default();
        for (i, &v) in vars.iter().enumerate() {
            if sdd.vtree().leaf_of_var(v).is_none() {
                return Err(SnapError::Invalid {
                    what: "served variable not in the vtree",
                });
            }
            if var_index.insert(v, i).is_some() {
                return Err(SnapError::Invalid {
                    what: "duplicate served variable",
                });
            }
        }

        let pairs = bytes_to_u64_pairs(&r.take(TAG_WEIGHTS)?, "weight section ragged")?;
        if pairs.len() != vars.len() {
            return Err(SnapError::Invalid {
                what: "weight table length disagrees with the variable list",
            });
        }
        let mut posture = Posture::new(vars.len());
        for (i, (&v, &(nb, pb))) in vars.iter().zip(&pairs).enumerate() {
            let (wn, wp) = (f64::from_bits(nb), f64::from_bits(pb));
            if posture.set_weights(i, v, wn, wp).is_err() {
                return Err(SnapError::Invalid {
                    what: "weight not finite and nonnegative",
                });
            }
        }

        // The pins are rebuilt by asserting the evidence in order; a
        // literal that changes nothing was never recorded by any writer.
        for (v, b) in bytes_to_u32_pairs(&r.take(TAG_EVIDENCE)?, "evidence section ragged")? {
            let v = VarId(v);
            let Some(&i) = var_index.get(&v).filter(|_| b <= 1) else {
                return Err(SnapError::Invalid {
                    what: "malformed evidence literal",
                });
            };
            if !posture.assert(i, (v, b == 1)) {
                return Err(SnapError::Invalid {
                    what: "evidence literal changes no pin",
                });
            }
        }

        let ac = Ac::read_sections(&mut r, vars.len())?;

        Ok(FrozenKb {
            sdd: Arc::new(sdd),
            root,
            vars,
            var_index,
            posture,
            ac,
            provenance: KbProvenance::Raw,
        })
    }
}
