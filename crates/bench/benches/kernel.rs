//! Criterion microbenchmarks for the semantic kernel: factor enumeration
//! (the inner loop of the paper's compilation), rank computation (the engine
//! of Theorem 5), treewidth, and truth-table operations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use boolfunc::{factors, families, BoolFn, CommMatrix, VarSet};
use vtree::{VarId, Vtree};

fn vars(n: u32) -> Vec<VarId> {
    (0..n).map(VarId).collect()
}

fn bench_factors(c: &mut Criterion) {
    let mut g = c.benchmark_group("factors");
    for n in [8usize, 12, 16] {
        let f = families::parity(&vars(n as u32));
        let y = VarSet::from_iter((0..n as u32 / 2).map(VarId));
        g.bench_with_input(BenchmarkId::new("parity_half_split", n), &n, |b, _| {
            b.iter(|| black_box(factors(&f, &y).len()))
        });
    }
    let (d, xs, _) = families::disjointness(6);
    let y = VarSet::from_slice(&xs);
    g.bench_function("disjointness_6_separated", |b| {
        b.iter(|| black_box(factors(&d, &y).len()))
    });
    g.finish();
}

fn bench_factor_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("factor_width");
    for n in [8usize, 10, 12] {
        let f = families::parity(&vars(n as u32));
        let t = Vtree::balanced(&vars(n as u32)).unwrap();
        g.bench_with_input(BenchmarkId::new("parity_balanced", n), &n, |b, _| {
            b.iter(|| black_box(boolfunc::factor_width(&f, &t)))
        });
    }
    g.finish();
}

fn bench_rank(c: &mut Criterion) {
    let mut g = c.benchmark_group("comm_rank");
    for n in [4usize, 6, 8] {
        let (f, xs, ys) = families::disjointness(n);
        let x1 = VarSet::from_slice(&xs);
        let x2 = VarSet::from_slice(&ys);
        let m = CommMatrix::of(&f, &x1, &x2);
        g.bench_with_input(BenchmarkId::new("gf2", n), &n, |b, _| {
            b.iter(|| black_box(m.rank_gf2()))
        });
        if n <= 6 {
            g.bench_with_input(BenchmarkId::new("modp", n), &n, |b, _| {
                b.iter(|| black_box(m.rank_modp()))
            });
        }
    }
    g.finish();
}

fn bench_treewidth(c: &mut Criterion) {
    let mut g = c.benchmark_group("treewidth");
    for n in [10usize, 14, 18] {
        let graph = graphtw::Graph::grid(2, n / 2);
        g.bench_with_input(BenchmarkId::new("exact_grid2xk", n), &n, |b, _| {
            b.iter(|| black_box(graphtw::exact_treewidth(&graph).unwrap().0))
        });
    }
    let big = graphtw::Graph::grid(5, 20);
    g.bench_function("minfill_grid5x20", |b| {
        b.iter(|| {
            black_box(graphtw::width_of_order(
                &big,
                &graphtw::min_fill_order(&big),
            ))
        })
    });
    // The primal graph of the DNF lineage of R(x), S(x, y) over 200 x-values
    // with 4 partners each: the top OR gate is a degree-800 hub, the shape
    // where recounting fill per round was quadratic in the hub's degree.
    let hub = {
        let (q, schema) = query::families::two_atom_hierarchical();
        let (r, s) = (schema.by_name("R").unwrap(), schema.by_name("S").unwrap());
        let mut db = query::Database::new(schema);
        for x in 1..=200 {
            db.insert(r, vec![x], 0.5);
            for y in 1..=4 {
                db.insert(s, vec![x, y], 0.5);
            }
        }
        query::lineage_circuit(&q, &db).primal_graph().0
    };
    g.bench_function("minfill_hub800", |b| {
        b.iter(|| black_box(graphtw::min_fill_order(&hub).len()))
    });
    g.finish();
}

fn bench_boolfn_ops(c: &mut Criterion) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let f = BoolFn::random(VarSet::from_slice(&vars(16)), &mut rng);
    let g2 = BoolFn::random(VarSet::from_slice(&vars(16)), &mut rng);
    let mut g = c.benchmark_group("boolfn");
    g.bench_function("and_16", |b| b.iter(|| black_box(f.and(&g2))));
    g.bench_function("wmc_16", |b| {
        b.iter(|| black_box(f.probability(|v| 0.3 + 0.02 * v.index() as f64)))
    });
    g.bench_function("restrict_16", |b| {
        b.iter(|| black_box(f.restrict(VarId(7), true)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_factors,
    bench_factor_width,
    bench_rank,
    bench_treewidth,
    bench_boolfn_ops
);
criterion_main!(benches);
