//! The snapshot tier's contract, tested end to end: a saved-and-loaded
//! [`FrozenKb`] answers every query **bit-identically** to the original
//! (proptest over random weighted instances), and every corrupted artifact
//! — truncation at any prefix, any flipped byte, a wrong version, an
//! oversized range — fails with a typed [`SnapError`], never a panic.

use cnf::CnfFormula;
use kb::{FrozenKb, KnowledgeBase};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentential_core::Compiler;
use snap::SnapError;
use std::sync::Arc;
use vtree::VarId;

/// A seeded random low-treewidth instance (the props.rs recipe) plus
/// probabilities bounded away from 0 and 1.
fn random_instance(n: u32, m: usize, seed: u64) -> (CnfFormula, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = 3u32.min(n);
    let mut f = CnfFormula::new(n);
    for _ in 0..m {
        let start = rng.gen_range(0..n - w + 1);
        let k = rng.gen_range(1..=w);
        let mut vars: Vec<u32> = (start..start + w).collect();
        for i in (1..vars.len()).rev() {
            vars.swap(i, rng.gen_range(0..i as u32 + 1) as usize);
        }
        f.add_clause(
            vars.into_iter()
                .take(k as usize)
                .map(|v| (VarId(v), rng.gen_bool(0.5)))
                .collect(),
        );
    }
    let probs = (0..n)
        .map(|_| 0.05 + 0.9 * rng.gen_range(0.0..1.0))
        .collect();
    (f, probs)
}

fn frozen_instance(n: u32, m: usize, seed: u64) -> Arc<FrozenKb> {
    let (f, probs) = random_instance(n, m, seed);
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).expect("compiles");
    for (i, &p) in probs.iter().enumerate() {
        kb.set_probability(VarId(i as u32), p).unwrap();
    }
    // Freeze some evidence in when it stays consistent, so snapshots carry
    // a nontrivial pin table.
    let _ = kb.condition(&[(VarId(0), seed.is_multiple_of(2))]);
    Arc::new(kb.freeze())
}

fn save(kb: &FrozenKb) -> Vec<u8> {
    let mut bytes = Vec::new();
    kb.save(&mut bytes).unwrap();
    bytes
}

/// Every query answer of `b`, asserted bit-identical to `a`'s. Weighted
/// answers are compared with `to_bits` — same floats, not close floats.
fn assert_bit_identical(a: &Arc<FrozenKb>, b: &Arc<FrozenKb>) {
    let (mut sa, mut sb) = (a.session(), b.session());
    assert_eq!(a.vars(), b.vars());
    assert_eq!(a.evidence(), b.evidence());
    assert_eq!(sa.count_models(), sb.count_models());
    assert_eq!(sa.is_consistent(), sb.is_consistent());
    assert_eq!(sa.log_weight().to_bits(), sb.log_weight().to_bits());
    match (sa.all_marginals(), sb.all_marginals()) {
        (Ok(ma), Ok(mb)) => {
            assert_eq!(ma.len(), mb.len());
            for ((va, pa), (vb, pb)) in ma.iter().zip(mb.iter()) {
                assert_eq!(va, vb);
                assert_eq!(pa.to_bits(), pb.to_bits());
            }
        }
        (ra, rb) => assert_eq!(ra.is_err(), rb.is_err()),
    }
    match (sa.mpe(), sb.mpe()) {
        (Ok(ma), Ok(mb)) => {
            assert_eq!(ma.log_weight.to_bits(), mb.log_weight.to_bits());
            assert_eq!(ma.assignment, mb.assignment);
        }
        (ra, rb) => assert_eq!(ra.is_err(), rb.is_err()),
    }
    for &v in a.vars() {
        assert_eq!(sa.entails(&[(v, true)]), sb.entails(&[(v, true)]));
    }
    // And with fresh session-local evidence on both sides.
    if let Some(&v) = a.vars().first() {
        let ra = sa.condition(&[(v, true)]);
        let rb = sb.condition(&[(v, true)]);
        assert_eq!(ra.is_err(), rb.is_err());
        if ra.is_ok() {
            assert_eq!(sa.log_weight().to_bits(), sb.log_weight().to_bits());
            assert_eq!(sa.count_models(), sb.count_models());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// save → load is the identity as far as any query can tell, down to
    /// the last mantissa bit.
    #[test]
    fn save_load_roundtrip_is_bit_identical(n in 2u32..=12, m in 0usize..16, seed: u64) {
        let kb = frozen_instance(n, m, seed);
        let loaded = Arc::new(FrozenKb::load(save(&kb).as_slice()).unwrap());
        assert_bit_identical(&kb, &loaded);
    }

    /// Truncating a valid artifact anywhere fails with a typed error.
    #[test]
    fn truncation_never_panics(seed: u64, frac in 0.0f64..1.0) {
        let kb = frozen_instance(6, 8, seed);
        let bytes = save(&kb);
        let cut = (bytes.len() as f64 * frac) as usize;
        prop_assert!(FrozenKb::load(&bytes[..cut.min(bytes.len() - 1)]).is_err());
    }

    /// Flipping any single byte fails with a typed error (the per-section
    /// checksum catches payload damage; header fields are validated).
    #[test]
    fn any_flipped_byte_is_rejected(seed in 0u64..8, pos_seed: u64) {
        let kb = frozen_instance(6, 8, seed);
        let mut bytes = save(&kb);
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 0x01;
        prop_assert!(FrozenKb::load(bytes.as_slice()).is_err());
    }
}

#[test]
fn wrong_version_and_kind_are_typed() {
    let kb = frozen_instance(5, 6, 7);
    let mut bytes = save(&kb);
    // Format version lives right after the magic.
    bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
    assert!(matches!(
        FrozenKb::load(bytes.as_slice()),
        Err(SnapError::UnsupportedVersion { found: 999 })
    ));

    let mut bytes = save(&kb);
    bytes[0] = b'X';
    assert!(matches!(
        FrozenKb::load(bytes.as_slice()),
        Err(SnapError::BadMagic)
    ));

    // An SDD container is not a KB container.
    let mut sdd_bytes = Vec::new();
    kb.sdd().write_to(&mut sdd_bytes).unwrap();
    assert!(matches!(
        FrozenKb::load(sdd_bytes.as_slice()),
        Err(SnapError::WrongKind {
            expected: snap::KIND_KB,
            ..
        })
    ));
}

#[test]
fn empty_and_garbage_inputs_are_typed() {
    assert!(matches!(
        FrozenKb::load(&[][..]),
        Err(SnapError::Truncated { .. })
    ));
    let garbage = vec![0xABu8; 4096];
    assert!(FrozenKb::load(garbage.as_slice()).is_err());

    // A section whose declared length lies far beyond the file must fail
    // with truncation, not an attempted huge allocation. Byte 12 starts
    // the section count; the first section header follows at 16.
    let kb = frozen_instance(4, 4, 1);
    let mut bytes = save(&kb);
    // Oversize the first section's length field (tag u32 at 16, len u64 at 20).
    bytes[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(FrozenKb::load(bytes.as_slice()).is_err());
}

/// The loaded base is fully serviceable: a session on it asserts fresh
/// evidence on top of the frozen pin and counts exactly the brute-force
/// models, and a second save/load generation changes nothing.
#[test]
fn loaded_kb_reconditions_against_brute_force() {
    let (f, _) = random_instance(8, 10, 42);
    let kb = frozen_instance(8, 10, 42);
    let loaded = Arc::new(FrozenKb::load(save(&kb).as_slice()).unwrap());
    let count = |evidence: &[(VarId, bool)]| {
        let vars = boolfunc::VarSet::from_slice(&f.all_vars());
        (0..1u64 << 8)
            .map(|i| boolfunc::Assignment::from_index(&vars, i))
            .filter(|a| f.eval(a) && evidence.iter().all(|&(v, b)| a.get(v) == Some(b)))
            .count() as u128
    };
    let mut evidence = loaded.evidence().to_vec();
    let mut s = loaded.session();
    assert_eq!(s.count_models().to_u128(), Some(count(&evidence)));
    let fresh = (VarId(2), true);
    evidence.push(fresh);
    assert_eq!(s.condition(&[fresh]).is_ok(), count(&evidence) > 0);
    assert_eq!(s.count_models().to_u128(), Some(count(&evidence)));
    // A second generation survives: save the loaded KB again and reload.
    let again = Arc::new(FrozenKb::load(save(&loaded).as_slice()).unwrap());
    assert_bit_identical(&loaded, &again);
}

/// The section tags a current writer emits, in order.
const CURRENT_TAGS: [u32; 11] = [1, 2, 3, 16, 17, 18, 19, 21, 22, 23, 24];

/// Rebuild the `KIND_KB` container `bytes` section by section: `edit`
/// maps each current section to the sections written in its place.
fn relayout(bytes: &[u8], mut edit: impl FnMut(u32, Vec<u8>) -> Vec<(u32, Vec<u8>)>) -> Vec<u8> {
    let mut r = snap::Reader::new(&mut &bytes[..], snap::KIND_KB).unwrap();
    let sections: Vec<(u32, Vec<u8>)> = CURRENT_TAGS
        .iter()
        .flat_map(|&tag| edit(tag, r.take(tag).unwrap()))
        .collect();
    let mut w = snap::Writer::new(Vec::new(), snap::KIND_KB, sections.len() as u32).unwrap();
    for (tag, payload) in &sections {
        w.section(*tag, payload).unwrap();
    }
    w.finish().unwrap()
}

/// An evidence section (tag 19) payload: `(var, polarity)` words.
fn evidence_payload(evidence: &[(VarId, bool)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(v, b) in evidence {
        snap::put_u32(&mut out, v.0);
        snap::put_u32(&mut out, b as u32);
    }
    out
}

/// The retired pin section (tag 20) as earlier writers folded it from the
/// evidence: `(var, state)` words sorted by variable, state 0/1 = pinned
/// to that polarity, 2 = both polarities asserted.
fn legacy_pins(evidence: &[(VarId, bool)]) -> Vec<u8> {
    let mut pins = std::collections::BTreeMap::new();
    for &(v, b) in evidence {
        let state = pins.entry(v.0).or_insert(b as u32);
        if *state != b as u32 {
            *state = 2;
        }
    }
    let mut out = Vec::new();
    for (v, state) in pins {
        snap::put_u32(&mut out, v);
        snap::put_u32(&mut out, state);
    }
    out
}

/// Containers from earlier writers carry a fourth SDD section, the
/// manager's negation memo (tag 4, right after the arena), and the pin
/// table folded from the evidence (tag 20, right after it). A base saved
/// that way still loads and answers bit-identically to a current round
/// trip; saving it again writes the current layout.
#[test]
fn legacy_negation_section_is_skipped_on_load() {
    use sdd::snapshot::{TAG_ARENA, TAG_NODES};
    let kb = frozen_instance(8, 10, 42);
    assert!(!kb.evidence().is_empty(), "the fixture freezes evidence in");
    let bytes = save(&kb);
    let current = Arc::new(FrozenKb::load(bytes.as_slice()).unwrap());

    let pins = legacy_pins(kb.evidence());
    let mut num_nodes = 0;
    let legacy = relayout(&bytes, |tag, payload| match tag {
        TAG_NODES => {
            num_nodes = payload.len() / 16;
            vec![(tag, payload)]
        }
        // One id per node (u32::MAX = no negation known).
        TAG_ARENA => vec![(tag, payload), (4, vec![0xFF; 4 * num_nodes])],
        19 => vec![(tag, payload), (20, pins.clone())],
        _ => vec![(tag, payload)],
    });
    assert_eq!(
        legacy.len(),
        bytes.len() + 20 + 4 * num_nodes + 20 + pins.len()
    );

    let loaded = Arc::new(FrozenKb::load(legacy.as_slice()).unwrap());
    assert_bit_identical(&current, &loaded);
    assert_eq!(save(&loaded), bytes);
}

/// The demo formula `(x0 ∨ x1) ∧ (¬x1 ∨ x2)` frozen under `evidence`:
/// three models with x0, one without.
fn demo_base(evidence: &[(VarId, bool)]) -> Arc<FrozenKb> {
    let f = CnfFormula::from_clauses(
        3,
        vec![
            vec![(VarId(0), true), (VarId(1), true)],
            vec![(VarId(1), false), (VarId(2), true)],
        ],
    );
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).unwrap();
    let _ = kb.condition(evidence);
    Arc::new(kb.freeze())
}

/// A legacy pin section that disagrees with the evidence beside it is
/// skipped like any retired section: the base serves the evidence's
/// answers, never the stale pins'.
#[test]
fn legacy_pins_disagreeing_with_the_evidence_serve_the_evidence() {
    let x0 = (VarId(0), true);
    let kb = demo_base(&[x0]);
    let bytes = save(&kb);
    let lying = relayout(&bytes, |tag, payload| match tag {
        19 => vec![(tag, payload), (20, legacy_pins(&[(VarId(0), false)]))],
        _ => vec![(tag, payload)],
    });
    let loaded = Arc::new(FrozenKb::load(lying.as_slice()).unwrap());
    assert_eq!(loaded.evidence(), &[x0]);
    let mut s = loaded.session();
    assert_eq!(s.count_models().to_u128(), Some(3));
    assert_eq!(s.marginal(VarId(0)), Ok(1.0));
    assert_bit_identical(&kb, &loaded);
}

/// Every writer records only the literals that change the pins, so an
/// evidence section with a repeat — of a pinned literal, or of any literal
/// on a variable already asserted both ways — is corrupt: a typed error,
/// never a panic. A contradiction itself is a real (inconsistent) base.
#[test]
fn evidence_that_changes_no_pin_is_rejected() {
    let (x0, not_x0) = ((VarId(0), true), (VarId(0), false));
    let bytes = save(&demo_base(&[x0]));
    let with_evidence = |evidence: &[(VarId, bool)]| {
        let payload = evidence_payload(evidence);
        let bytes = relayout(&bytes, |tag, old| {
            vec![(tag, if tag == 19 { payload.clone() } else { old })]
        });
        FrozenKb::load(bytes.as_slice())
    };
    for bad in [vec![x0, x0], vec![x0, not_x0, x0], vec![x0, not_x0, not_x0]] {
        assert!(
            matches!(with_evidence(&bad), Err(SnapError::Invalid { .. })),
            "{bad:?}"
        );
    }
    let contradicted = Arc::new(with_evidence(&[x0, not_x0]).unwrap());
    assert_eq!(contradicted.evidence(), &[x0, not_x0]);
    assert!(!contradicted.session().is_consistent());
}

/// `tests/data/chain20_not_x3.kbsnap` was written by the previous snapshot
/// writer (tag 20 included): `chain:20` compiled without up-front exact
/// counts, with `¬x3` (VarId 2) frozen in. It answers bit-identically to a
/// fresh compile, condition and freeze, and re-saving it writes the
/// current layout.
#[test]
fn fixture_from_the_previous_writer_loads_and_resaves_in_the_current_layout() {
    let fixture: &[u8] = include_bytes!("data/chain20_not_x3.kbsnap");
    assert!(
        snap::Reader::new(&mut &fixture[..], snap::KIND_KB)
            .unwrap()
            .take(20)
            .is_ok(),
        "the fixture carries the retired pin section"
    );
    let loaded = Arc::new(FrozenKb::load(fixture).unwrap());

    let compiler = Compiler::builder().exact_counts(false).build();
    let mut kb = KnowledgeBase::compile_cnf(&compiler, &cnf::families::chain_cnf(20)).unwrap();
    kb.condition(&[(VarId(2), false)]).unwrap();
    let fresh = Arc::new(kb.freeze());

    assert_bit_identical(&fresh, &loaded);
    let mut s = loaded.session();
    assert_eq!(s.count_models().to_u128(), Some(5168));
    s.retract();
    assert_eq!(s.count_models().to_u128(), Some(5168));
    let resaved = save(&loaded);
    assert_eq!(resaved, save(&fresh));
    assert_eq!(resaved.len(), fixture.len() - 20 - 8);
}
