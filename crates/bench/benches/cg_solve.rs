//! Criterion benches of the solvers — "a significant fraction of
//! time-to-solution of LQCD applications" (paper, Section II-A) — and the
//! BLAS-1 field primitives they are built from.

use bench::wilson_setup;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use grid::prelude::*;

fn bench_solvers(c: &mut Criterion) {
    let dims = [4, 4, 4, 4];
    let mut group = c.benchmark_group("solvers_4x4x4x4");
    group.sample_size(10);
    {
        let vl = VectorLength::of(512);
        let (op, b_field) = wilson_setup(dims, vl, SimdBackend::Fcmla);
        group.bench_with_input(BenchmarkId::new("cg_normal_eqs", vl), &vl, |bch, _| {
            bch.iter(|| cg(&op, &b_field, 1e-6, 500))
        });
        group.bench_with_input(BenchmarkId::new("bicgstab", vl), &vl, |bch, _| {
            bch.iter(|| bicgstab(&op, &b_field, 1e-6, 500))
        });
        group.bench_with_input(BenchmarkId::new("even_odd_schur", vl), &vl, |bch, _| {
            bch.iter(|| solve_eo(&op, &b_field, 1e-6, 500))
        });
        group.bench_with_input(BenchmarkId::new("mixed_precision", vl), &vl, |bch, _| {
            let cfg = LadderConfig {
                max_outer: 10,
                ..LadderConfig::f32_only(1e-6)
            };
            bch.iter(|| ladder_solve(&op, &b_field, &cfg))
        });
    }
    group.finish();
}

fn bench_field_primitives(c: &mut Criterion) {
    let g = Grid::new([4, 4, 4, 8], VectorLength::of(512), SimdBackend::Fcmla);
    let x = FermionField::random(g.clone(), 1);
    let y = FermionField::random(g.clone(), 2);
    let mut z = FermionField::zero(g.clone());
    let mut group = c.benchmark_group("field_blas1_vl512");
    group.bench_function("axpy", |b| b.iter(|| z.axpy(0.5, &x, &y)));
    group.bench_function("inner_product", |b| b.iter(|| x.inner(&y)));
    group.bench_function("norm2", |b| b.iter(|| x.norm2()));
    group.finish();
}

criterion_group!(benches, bench_solvers, bench_field_primitives);
criterion_main!(benches);
