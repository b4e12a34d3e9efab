//! Snapshot persistence for the SDD store: [`FrozenSdd::write_to`] /
//! [`FrozenSdd::read_from`].
//!
//! The store is already the serialization-friendly form — plain contiguous
//! arrays indexed by global ids — so a snapshot is little more than those
//! arrays framed by the `snap` container format:
//!
//! | tag | section | payload |
//! |-----|---------|---------|
//! | 1   | vtree   | `count, root`, then `(kind, a, b)` per node (leaf: `a` = var; internal: `a, b` = children) |
//! | 2   | nodes   | `(tag, x, y, z)` per node — `0`⊥ `1`⊤ `2`literal(`var, positive`) `3`decision(`vnode, start, end`) |
//! | 3   | arena   | raw `(prime, sub)` id pairs |
//!
//! An unfolded circuit ([`Ac`]) contributes four more sections, which the
//! KB container writes after its own: [`Ac::write_sections`] /
//! [`Ac::read_sections`].
//!
//! | tag | section | payload |
//! |-----|---------|---------|
//! | 21  | acmeta  | circuit root, then per var the shared `(¬v, v)` leaf ids |
//! | 22  | ackinds | one kind byte per gate |
//! | 23  | acgmeta | per gate: leaf `(var, positive)` or child range `(start, end)` |
//! | 24  | acchild | the flat child array |
//!
//! Tag 4 is retired: earlier writers added the manager's negation memo
//! there. Nothing reads it, and the loader skips it like any section it
//! does not take, so those files still load; no new section may reuse the
//! tag.
//!
//! Loading is **allocation-lean**: each section is read once into its
//! final contiguous buffer, bulk-converted with word-level sweeps, and
//! then validated in a single linear pass. A frozen store carries no
//! interning tables (it is never extended), so nothing derived is rebuilt;
//! the manager [`uid`](FrozenSdd::uid) is drawn fresh because uids are
//! process-unique, never durable.
//!
//! Validation accepts exactly the arrays a real freeze produces: ids and
//! ranges in bounds, terminals only at ids 0/1, each literal at most once,
//! decision elements strictly below their decision (interning order is
//! topological) with primes strictly ascending (canonical element order).
//! Everything else is a typed [`SnapError`] — never a panic, never an
//! out-of-bounds index.

use crate::ac::{Ac, AcId, K_ADD, K_LEAF, K_MUL, K_ZERO};
use crate::{next_uid, FrozenSdd, SddId, SddNode};
use snap::{bytes_to_u32_pairs, bytes_to_u32s, put_u32, Dec, Reader, SnapError, Writer, KIND_SDD};
use std::io::{BufRead, Write};
use std::sync::Arc;
use vtree::fxhash::FxHashSet;
use vtree::{VarId, Vtree, VtreeError, VtreeNodeId, VtreeNodeKind};

/// Section tag: the vtree arena.
pub const TAG_VTREE: u32 = 1;
/// Section tag: the SDD node table.
pub const TAG_NODES: u32 = 2;
/// Section tag: the element arena.
pub const TAG_ARENA: u32 = 3;

/// Sections a store contributes to a container (the KB container embeds
/// these plus its own).
pub const SDD_SECTIONS: u32 = 3;

/// Section tag: circuit root and literal-leaf ids.
pub const TAG_ACMETA: u32 = 21;
/// Section tag: circuit gate kinds.
pub const TAG_ACKINDS: u32 = 22;
/// Section tag: circuit gate metadata.
pub const TAG_ACGMETA: u32 = 23;
/// Section tag: the flat circuit child array.
pub const TAG_ACCHILD: u32 = 24;

/// Sections an unfolded circuit contributes to a container.
pub const AC_SECTIONS: u32 = 4;

/// Node-record tags inside [`TAG_NODES`].
const NODE_FALSE: u32 = 0;
const NODE_TRUE: u32 = 1;
const NODE_LITERAL: u32 = 2;
const NODE_DECISION: u32 = 3;

fn vtree_error(e: VtreeError) -> SnapError {
    SnapError::Invalid {
        what: match e {
            VtreeError::Empty => "vtree: empty arena",
            VtreeError::DuplicateVar(_) => "vtree: duplicate variable",
            VtreeError::Malformed(what) => what,
        },
    }
}

impl FrozenSdd {
    /// Write this slab as a standalone `KIND_SDD` container.
    pub fn write_to<W: Write>(&self, out: W) -> Result<(), SnapError> {
        let mut w = Writer::new(out, KIND_SDD, SDD_SECTIONS)?;
        self.write_sections(&mut w)?;
        w.finish()?;
        Ok(())
    }

    /// Read a slab back from a standalone `KIND_SDD` container.
    pub fn read_from<R: BufRead>(mut input: R) -> Result<FrozenSdd, SnapError> {
        let mut r = Reader::new(&mut input, KIND_SDD)?;
        Self::read_sections(&mut r)
    }

    /// Append the slab's sections to an open container (the KB snapshot
    /// embeds a slab this way; [`FrozenSdd::write_to`] is the standalone
    /// wrapper).
    pub fn write_sections<W: Write>(&self, w: &mut Writer<W>) -> Result<(), SnapError> {
        // Vtree: count, root, then (kind, a, b) per node.
        let vt = &self.vtree;
        let mut buf = Vec::with_capacity(8 + vt.num_nodes() * 12);
        put_u32(&mut buf, vt.num_nodes() as u32);
        put_u32(&mut buf, vt.root().0);
        for id in vt.node_ids() {
            match *vt.kind(id) {
                VtreeNodeKind::Leaf(v) => {
                    put_u32(&mut buf, 0);
                    put_u32(&mut buf, v.0);
                    put_u32(&mut buf, 0);
                }
                VtreeNodeKind::Internal { left, right } => {
                    put_u32(&mut buf, 1);
                    put_u32(&mut buf, left.0);
                    put_u32(&mut buf, right.0);
                }
            }
        }
        w.section(TAG_VTREE, &buf)?;

        // Node table: 16-byte records.
        let mut buf = Vec::with_capacity(self.nodes.len() * 16);
        for n in self.nodes.iter() {
            match n {
                SddNode::False => {
                    put_u32(&mut buf, NODE_FALSE);
                    put_u32(&mut buf, 0);
                    put_u32(&mut buf, 0);
                    put_u32(&mut buf, 0);
                }
                SddNode::True => {
                    put_u32(&mut buf, NODE_TRUE);
                    put_u32(&mut buf, 0);
                    put_u32(&mut buf, 0);
                    put_u32(&mut buf, 0);
                }
                SddNode::Literal { var, positive } => {
                    put_u32(&mut buf, NODE_LITERAL);
                    put_u32(&mut buf, var.0);
                    put_u32(&mut buf, *positive as u32);
                    put_u32(&mut buf, 0);
                }
                SddNode::Decision { vnode, elems } => {
                    put_u32(&mut buf, NODE_DECISION);
                    put_u32(&mut buf, vnode.0);
                    put_u32(&mut buf, elems.start);
                    put_u32(&mut buf, elems.end);
                }
            }
        }
        w.section(TAG_NODES, &buf)?;

        // Element arena: raw id pairs.
        let mut buf = Vec::with_capacity(self.arena.len() * 8);
        for &(p, s) in self.arena.iter() {
            put_u32(&mut buf, p.0);
            put_u32(&mut buf, s.0);
        }
        w.section(TAG_ARENA, &buf)
    }

    /// Rebuild a slab from an already-framed container's sections,
    /// validating everything (see the module doc for the accepted
    /// invariants).
    pub fn read_sections(r: &mut Reader) -> Result<FrozenSdd, SnapError> {
        // Vtree first — node validation needs it.
        let bytes = r.take(TAG_VTREE)?;
        let mut d = Dec::new(&bytes, "vtree section");
        let count = d.u32()? as usize;
        let root = VtreeNodeId(d.u32()?);
        let words = bytes_to_u32s(d.rest(), "vtree section ragged")?;
        if words.len() != count * 3 {
            return Err(SnapError::Invalid {
                what: "vtree section length disagrees with its count",
            });
        }
        let mut kinds = Vec::with_capacity(count);
        for rec in words.chunks_exact(3) {
            kinds.push(match rec[0] {
                0 => VtreeNodeKind::Leaf(VarId(rec[1])),
                1 => VtreeNodeKind::Internal {
                    left: VtreeNodeId(rec[1]),
                    right: VtreeNodeId(rec[2]),
                },
                _ => {
                    return Err(SnapError::Invalid {
                        what: "vtree: unknown node kind",
                    })
                }
            });
        }
        let vtree = Vtree::from_node_kinds(kinds, root).map_err(vtree_error)?;

        // Element arena next — decision validation needs its bounds.
        let arena: Vec<(SddId, SddId)> =
            bytes_to_u32_pairs(&r.take(TAG_ARENA)?, "arena section ragged")?
                .into_iter()
                .map(|(p, s)| (SddId(p), SddId(s)))
                .collect();

        // Node table: one linear validation pass.
        let node_words = bytes_to_u32s(&r.take(TAG_NODES)?, "node section ragged")?;
        if node_words.len() % 4 != 0 {
            return Err(SnapError::Invalid {
                what: "node section length is not a record multiple",
            });
        }
        let num_nodes = node_words.len() / 4;
        if num_nodes < 2 {
            return Err(SnapError::Invalid {
                what: "node table lacks the terminal nodes",
            });
        }
        if num_nodes > (1 << 31) {
            return Err(SnapError::Invalid {
                what: "node table exceeds the 31-bit id cap",
            });
        }
        let mut nodes: Vec<SddNode> = Vec::with_capacity(num_nodes);
        let mut literals: FxHashSet<(VarId, bool)> = FxHashSet::default();
        for (id, rec) in node_words.chunks_exact(4).enumerate() {
            let node = match (rec[0], rec[1], rec[2], rec[3]) {
                (NODE_FALSE, 0, 0, 0) if id == 0 => SddNode::False,
                (NODE_TRUE, 0, 0, 0) if id == 1 => SddNode::True,
                (NODE_LITERAL, var, positive @ (0 | 1), 0) if id >= 2 => {
                    let var = VarId(var);
                    if vtree.leaf_of_var(var).is_none() {
                        return Err(SnapError::Invalid {
                            what: "literal variable not in the vtree",
                        });
                    }
                    let positive = positive == 1;
                    if !literals.insert((var, positive)) {
                        return Err(SnapError::Invalid {
                            what: "duplicate literal node",
                        });
                    }
                    SddNode::Literal { var, positive }
                }
                (NODE_DECISION, vnode, start, end) if id >= 2 => {
                    let vnode = VtreeNodeId(vnode);
                    if vnode.index() >= vtree.num_nodes() || vtree.is_leaf(vnode) {
                        return Err(SnapError::Invalid {
                            what: "decision vnode is not an internal vtree node",
                        });
                    }
                    if start >= end || end as usize > arena.len() {
                        return Err(SnapError::Invalid {
                            what: "decision element range out of bounds",
                        });
                    }
                    let mut prev_prime = None;
                    for &(p, s) in &arena[start as usize..end as usize] {
                        if p.index() >= id || s.index() >= id {
                            return Err(SnapError::Invalid {
                                what: "decision element not below its decision",
                            });
                        }
                        if prev_prime.is_some_and(|pp| p <= pp) {
                            return Err(SnapError::Invalid {
                                what: "decision elements not sorted by prime",
                            });
                        }
                        prev_prime = Some(p);
                    }
                    SddNode::Decision {
                        vnode,
                        elems: start..end,
                    }
                }
                _ => {
                    return Err(SnapError::Invalid {
                        what: "malformed node record",
                    })
                }
            };
            nodes.push(node);
        }

        Ok(FrozenSdd {
            vtree: Arc::new(vtree),
            nodes,
            arena,
            // Uids are process-unique, never durable: a loaded slab is a
            // new id space as far as external caches are concerned.
            uid: next_uid(),
        })
    }
}

impl Ac {
    /// Append the circuit's four sections to an open container.
    pub fn write_sections<W: Write>(&self, w: &mut Writer<W>) -> Result<(), SnapError> {
        let mut buf = Vec::with_capacity(4 + self.leaves.len() * 8);
        put_u32(&mut buf, self.root);
        for &(n, p) in &self.leaves {
            put_u32(&mut buf, n);
            put_u32(&mut buf, p);
        }
        w.section(TAG_ACMETA, &buf)?;
        w.section(TAG_ACKINDS, &self.kinds)?;
        let mut buf = Vec::with_capacity(self.meta.len() * 8);
        for &(a, b) in &self.meta {
            put_u32(&mut buf, a);
            put_u32(&mut buf, b);
        }
        w.section(TAG_ACGMETA, &buf)?;
        let mut buf = Vec::with_capacity(self.children.len() * 4);
        for &c in &self.children {
            put_u32(&mut buf, c);
        }
        w.section(TAG_ACCHILD, &buf)
    }

    /// Read and validate the four circuit sections into a circuit over
    /// `num_vars` dense variables: gates topologically ordered with
    /// in-bounds child ranges, and leaves matching the dense variable
    /// index. Anything else is a typed [`SnapError`].
    pub fn read_sections(r: &mut Reader, num_vars: usize) -> Result<Ac, SnapError> {
        let meta = r.take(TAG_ACMETA)?;
        let mut d = Dec::new(&meta, "acmeta section");
        let root = d.u32()?;
        let leaves: Vec<(AcId, AcId)> = bytes_to_u32s(d.rest(), "acmeta section ragged")?
            .chunks_exact(2)
            .map(|c| (c[0], c[1]))
            .collect();
        if leaves.len() != num_vars {
            return Err(SnapError::Invalid {
                what: "ac leaf table length disagrees with the variable list",
            });
        }

        let kinds = r.take(TAG_ACKINDS)?;
        let gmeta = bytes_to_u32_pairs(&r.take(TAG_ACGMETA)?, "ac meta section ragged")?;
        let children = bytes_to_u32s(&r.take(TAG_ACCHILD)?, "ac child section ragged")?;
        if gmeta.len() != kinds.len() {
            return Err(SnapError::Invalid {
                what: "ac gate arrays disagree in length",
            });
        }
        if root as usize >= kinds.len() {
            return Err(SnapError::Invalid {
                what: "ac root out of bounds",
            });
        }
        for (id, (&kind, &(a, b))) in kinds.iter().zip(gmeta.iter()).enumerate() {
            match kind {
                K_ZERO => {}
                K_LEAF => {
                    if a as usize >= num_vars || b > 1 {
                        return Err(SnapError::Invalid {
                            what: "ac leaf gate out of bounds",
                        });
                    }
                }
                K_ADD | K_MUL => {
                    if a > b || b as usize > children.len() {
                        return Err(SnapError::Invalid {
                            what: "ac child range out of bounds",
                        });
                    }
                    // Topological order: children strictly below their
                    // gate — the sweeps index forward/backward on that
                    // guarantee.
                    if children[a as usize..b as usize]
                        .iter()
                        .any(|&c| c as usize >= id)
                    {
                        return Err(SnapError::Invalid {
                            what: "ac child not below its gate",
                        });
                    }
                }
                _ => {
                    return Err(SnapError::Invalid {
                        what: "unknown ac gate kind",
                    })
                }
            }
        }
        // The shared leaf pairs must be the dense variable index's own
        // gates — marginals multiply dr[leaf] by the variable's weight on
        // that basis.
        for (i, &(n, p)) in leaves.iter().enumerate() {
            let ok = |id: AcId, positive: u32| {
                (id as usize) < kinds.len()
                    && kinds[id as usize] == K_LEAF
                    && gmeta[id as usize] == (i as u32, positive)
            };
            if !ok(n, 0) || !ok(p, 1) {
                return Err(SnapError::Invalid {
                    what: "ac leaf table does not match its gates",
                });
            }
        }
        Ok(Ac {
            kinds,
            meta: gmeta,
            children,
            root,
            leaves,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SddManager;
    use boolfunc::{BoolFn, VarSet};

    fn vars(n: u32) -> Vec<VarId> {
        (0..n).map(VarId).collect()
    }

    fn compiled(n: u32, seed: u64) -> (FrozenSdd, SddId, BoolFn) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = BoolFn::random(VarSet::from_slice(&vars(n)), &mut rng);
        let mut m = SddManager::new(Vtree::balanced(&vars(n)).unwrap());
        let r = m.from_boolfn(&f);
        (m.freeze(), r, f)
    }

    fn roundtrip(slab: &FrozenSdd) -> FrozenSdd {
        let mut bytes = Vec::new();
        slab.write_to(&mut bytes).unwrap();
        FrozenSdd::read_from(bytes.as_slice()).unwrap()
    }

    #[test]
    fn slab_roundtrips_bit_identically() {
        for seed in 30..35 {
            let (slab, root, f) = compiled(7, seed);
            let back = roundtrip(&slab);
            assert_eq!(back.nodes, slab.nodes);
            assert_eq!(back.arena, slab.arena);
            assert_eq!(back.vtree.to_string(), slab.vtree.to_string());
            assert_ne!(back.uid(), slab.uid(), "uids are never durable");
            let vs = VarSet::from_slice(&vars(7));
            for idx in 0..(1u64 << 7) {
                let asg = boolfunc::Assignment::from_index(&vs, idx);
                assert_eq!(back.eval(root, &asg), f.eval(&asg));
            }
        }
    }

    #[test]
    fn empty_manager_roundtrips() {
        let slab = SddManager::new(Vtree::balanced(&vars(3)).unwrap()).freeze();
        let back = roundtrip(&slab);
        assert_eq!(back.num_allocated(), 2);
        assert!(matches!(back.node(crate::FALSE), SddNode::False));
        assert!(matches!(back.node(crate::TRUE), SddNode::True));
    }

    /// Rewrite one section of a valid container through a fresh writer,
    /// with checksums recomputed — the white-box corruption harness.
    fn rewrite_section(bytes: &[u8], tag: u32, tweak: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut r = Reader::new(&mut &bytes[..], KIND_SDD).unwrap();
        let mut sections: Vec<(u32, Vec<u8>)> = [TAG_VTREE, TAG_NODES, TAG_ARENA]
            .into_iter()
            .map(|t| (t, r.take(t).unwrap()))
            .collect();
        let payload = &mut sections.iter_mut().find(|(t, _)| *t == tag).unwrap().1;
        tweak(payload);
        let mut w = Writer::new(Vec::new(), KIND_SDD, SDD_SECTIONS).unwrap();
        for (t, p) in &sections {
            w.section(*t, p).unwrap();
        }
        w.finish().unwrap()
    }

    /// Containers from earlier writers carry the manager's negation memo
    /// as a fourth section (tag 4, after the arena). They still load, to
    /// the same store a current round trip gives.
    #[test]
    fn legacy_negation_section_is_skipped_on_load() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let f = BoolFn::random(VarSet::from_slice(&vars(7)), &mut rng);
        let mut m = SddManager::new(Vtree::balanced(&vars(7)).unwrap());
        let root = m.from_boolfn(&f);
        let _ = m.negate(root);
        let neg = m.neg_cache.clone();
        assert!(neg.iter().any(|&n| n != crate::EMPTY_SLOT));
        let slab = m.freeze();
        let mut bytes = Vec::new();
        slab.write_to(&mut bytes).unwrap();

        let mut r = Reader::new(&mut bytes.as_slice(), KIND_SDD).unwrap();
        let mut w = Writer::new(Vec::new(), KIND_SDD, SDD_SECTIONS + 1).unwrap();
        for tag in [TAG_VTREE, TAG_NODES, TAG_ARENA] {
            w.section(tag, &r.take(tag).unwrap()).unwrap();
        }
        let mut payload = Vec::new();
        for n in neg {
            put_u32(&mut payload, n);
        }
        w.section(4, &payload).unwrap();
        let legacy = w.finish().unwrap();

        let back = FrozenSdd::read_from(legacy.as_slice()).unwrap();
        let current = roundtrip(&slab);
        assert_eq!(back.nodes, current.nodes);
        assert_eq!(back.arena, current.arena);
        assert_eq!(back.vtree.to_string(), current.vtree.to_string());
        assert_eq!(back.count_models_exact(root), slab.count_models_exact(root));
        let vs = VarSet::from_slice(&vars(7));
        for idx in 0..(1u64 << 7) {
            let asg = boolfunc::Assignment::from_index(&vs, idx);
            assert_eq!(back.eval(root, &asg), f.eval(&asg));
        }
    }

    #[test]
    fn adversarial_payloads_fail_with_typed_errors() {
        let (slab, _, _) = compiled(6, 50);
        let mut bytes = Vec::new();
        slab.write_to(&mut bytes).unwrap();

        // Find a decision record to corrupt (tag word == 3).
        let nodes_payload = {
            let mut r = Reader::new(&mut bytes.as_slice(), KIND_SDD).unwrap();
            r.take(TAG_NODES).unwrap()
        };
        let words = bytes_to_u32s(&nodes_payload, "x").unwrap();
        let dec_rec = (0..words.len() / 4)
            .find(|i| words[i * 4] == NODE_DECISION)
            .expect("a compiled SDD has decisions");

        // Oversized element range.
        let bad = rewrite_section(&bytes, TAG_NODES, |p| {
            p[dec_rec * 16 + 12..dec_rec * 16 + 16].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(matches!(
            FrozenSdd::read_from(bad.as_slice()),
            Err(SnapError::Invalid { what }) if what.contains("range")
        ));

        // Element above its decision (forward reference).
        let bad = rewrite_section(&bytes, TAG_ARENA, |p| {
            p[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(FrozenSdd::read_from(bad.as_slice()).is_err());

        // Terminal in the middle of the table.
        let bad = rewrite_section(&bytes, TAG_NODES, |p| {
            p[dec_rec * 16..dec_rec * 16 + 16].copy_from_slice(&[0u8; 16]);
        });
        assert!(matches!(
            FrozenSdd::read_from(bad.as_slice()),
            Err(SnapError::Invalid { .. })
        ));

        // Vtree root out of bounds.
        let bad = rewrite_section(&bytes, TAG_VTREE, |p| {
            p[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        assert!(matches!(
            FrozenSdd::read_from(bad.as_slice()),
            Err(SnapError::Invalid { .. })
        ));

        // A missing section is typed, not a panic.
        let mut w = Writer::new(Vec::new(), KIND_SDD, 1).unwrap();
        w.section(TAG_VTREE, &[0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
        let short = w.finish().unwrap();
        assert!(FrozenSdd::read_from(short.as_slice()).is_err());
    }
}
