//! Micro-benchmarks of the linear-algebra substrate: sparse mat-vec,
//! CSR construction, Jacobi eigendecomposition and the dense Cholesky
//! pseudoinverse route — the primitives every experiment sits on. The
//! `dense_n400` group times the Cholesky route on the GMM benchmark's
//! Laplacian at the size the exact engine builds it in the dense-batch
//! workload.

use cad_datasets::{GmmBenchmark, GmmBenchmarkOptions};
use cad_graph::generators::grid::grid_graph;
use cad_graph::generators::random::sparse_random_graph;
use cad_linalg::dense::CholeskyFactor;
use cad_linalg::eig::{jacobi_eigen, sym_eigen, JacobiOptions};
use cad_linalg::pinv::{laplacian_pinv_cholesky, sym_pinv};
use cad_linalg::{CsrMatrix, DenseMatrix};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_spmv(c: &mut Criterion) {
    let mut grp = c.benchmark_group("csr_spmv");
    for n in [1_000usize, 10_000, 100_000] {
        let g = sparse_random_graph(n, 4 * n, 1).expect("graph");
        let a = g.adjacency().clone();
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        grp.throughput(Throughput::Elements(a.nnz() as u64));
        grp.bench_with_input(BenchmarkId::from_parameter(n), &a, |b, a| {
            b.iter(|| a.matvec_into(black_box(&x), &mut y).expect("spmv"))
        });
    }
    grp.finish();
}

fn bench_csr_construction(c: &mut Criterion) {
    let n = 50_000;
    let g = sparse_random_graph(n, 4 * n, 2).expect("graph");
    let triplets: Vec<(u32, u32, f64)> = g
        .adjacency()
        .iter()
        .map(|(i, j, v)| (i as u32, j as u32, v))
        .collect();
    c.bench_function("csr_from_triplets_200k", |b| {
        b.iter(|| CsrMatrix::from_triplets(n, n, black_box(&triplets)))
    });
}

fn bench_dense_eigen_and_pinv(c: &mut Criterion) {
    let g = grid_graph(12, 12, 1.0).expect("grid");
    let l = g.laplacian_dense();
    let mut grp = c.benchmark_group("dense_n144");
    grp.sample_size(10);
    grp.bench_function("jacobi_eigen", |b| {
        b.iter(|| jacobi_eigen(black_box(&l), JacobiOptions::default()).expect("eigen"))
    });
    grp.bench_function("householder_ql_eigen", |b| {
        b.iter(|| sym_eigen(black_box(&l)).expect("eigen"))
    });
    grp.bench_function("laplacian_pinv_cholesky", |b| {
        b.iter(|| laplacian_pinv_cholesky(black_box(&l)).expect("pinv"))
    });
    grp.finish();
}

fn bench_dense_cholesky_n400(c: &mut Criterion) {
    let gmm = GmmBenchmark::generate(&GmmBenchmarkOptions::with_n(400)).expect("gmm");
    let l = gmm.seq.graph(0).laplacian_dense();
    let n = l.nrows();
    let jn = 1.0 / n as f64;
    let shifted = DenseMatrix::from_fn(n, n, |i, j| l.get(i, j) + jn);
    let factor = CholeskyFactor::factor(&shifted).expect("connected GMM graph");
    let mut grp = c.benchmark_group("dense_n400");
    grp.sample_size(20);
    grp.bench_function("laplacian_pinv_cholesky", |b| {
        b.iter(|| laplacian_pinv_cholesky(black_box(&l)).expect("pinv"))
    });
    grp.bench_function("cholesky_factor", |b| {
        b.iter(|| CholeskyFactor::factor(black_box(&shifted)).expect("factor"))
    });
    grp.bench_function("cholesky_inverse", |b| {
        b.iter(|| black_box(&factor).inverse().expect("inverse"))
    });
    grp.sample_size(5);
    grp.bench_function("sym_pinv", |b| {
        b.iter(|| sym_pinv(black_box(&l), 1e-9).expect("pinv"))
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_spmv,
    bench_csr_construction,
    bench_dense_eigen_and_pinv,
    bench_dense_cholesky_n400
);
criterion_main!(benches);
