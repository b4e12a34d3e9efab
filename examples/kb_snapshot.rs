//! The snapshot persistence tier — compile once, **save** the frozen base
//! to disk, **load** it back in a fresh process posture, and serve.
//!
//! The PODS'17 regime is compile-once/answer-many; `crates/snap` makes the
//! "once" durable. A saved artifact is a versioned, checksummed container
//! (`kb::FrozenKb::save`) holding the frozen SDD slab, the unfolded
//! arithmetic circuit, and the weight/evidence state as raw sections;
//! loading (`kb::FrozenKb::load`) is one validated pass per section — no
//! recompilation, no re-unfolding — and the loaded base answers every
//! query **bit-identically** to the one that was saved. Corrupted or
//! truncated artifacts fail with a typed `SnapError`, never a panic.
//!
//! Run: `cargo run --example kb_snapshot`

use sentential::prelude::*;
use snap::SnapError;
use std::io::BufReader;
use std::sync::Arc;

fn main() {
    // Compile the width-2 band family and weight it — the expensive boot
    // path a server without a snapshot pays every time.
    let f = cnf::families::band_cnf(40, 2);
    let mut kb = KnowledgeBase::compile_cnf(&Compiler::new(), &f).expect("band CNF compiles");
    for i in 0..40u32 {
        kb.set_probability(VarId(i), 0.25 + 0.5 * f64::from(i % 3) / 2.0)
            .unwrap();
    }
    // Evidence recorded on the builder is frozen in: every session on
    // the base (and on any copy loaded from disk) starts from it.
    kb.condition(&[(VarId(3), true)])
        .expect("consistent evidence");
    let original = Arc::new(kb.freeze());

    // Save: one artifact file, sections checksummed, format versioned.
    let path = std::env::temp_dir().join("kb_snapshot_example.kbsnap");
    let file = std::fs::File::create(&path).expect("create artifact");
    original
        .save(std::io::BufWriter::new(file))
        .expect("save never fails on a healthy base");
    let bytes = std::fs::metadata(&path).expect("artifact exists").len();
    println!(
        "saved  {} vars / {} SDD elements / {} AC gates -> {} ({bytes} bytes)",
        original.vars().len(),
        original.sdd_size(),
        original.unfolded_size(),
        path.display()
    );

    // Load: the cold-start path with a snapshot — a validated read, no
    // compilation. (exp_snap measures this at 10-90x faster than
    // recompiling, growing with scale.)
    let file = std::fs::File::open(&path).expect("open artifact");
    let loaded = Arc::new(FrozenKb::load(BufReader::new(file)).expect("artifact is intact"));
    println!("loaded {} back from disk", path.display());

    // Serve from the loaded base — and check against the original, bit
    // for bit, the way the snapshot test suite does.
    let (mut a, mut b) = (original.session(), loaded.session());
    assert_eq!(a.count_models(), b.count_models());
    assert_eq!(a.log_weight().to_bits(), b.log_weight().to_bits());
    let (ma, mb) = (a.all_marginals().unwrap(), b.all_marginals().unwrap());
    assert!(ma
        .iter()
        .zip(&mb)
        .all(|((va, pa), (vb, pb))| va == vb && pa.to_bits() == pb.to_bits()));
    println!(
        "served  count={} log_weight={:.6} P(x5)={:.6} — bit-identical to the original",
        b.count_models(),
        b.log_weight(),
        mb[4].1
    );

    // Damage the artifact and the loader says *what* is wrong — typed,
    // no panic, no partially-built base.
    let mut broken = std::fs::read(&path).expect("reread artifact");
    let mid = broken.len() / 2;
    broken[mid] ^= 0x40;
    match FrozenKb::load(broken.as_slice()) {
        Err(SnapError::Checksum { tag }) => {
            println!("flipped one byte -> rejected: checksum mismatch in section {tag}")
        }
        Err(e) => println!("flipped one byte -> rejected: {e}"),
        Ok(_) => unreachable!("a damaged artifact never loads"),
    }
    let _ = std::fs::remove_file(&path);
}
