//! Dense vectors and matrices.
//!
//! Vectors are plain `Vec<f64>` / `&[f64]` manipulated through the free
//! functions in [`vecops`]; matrices are row-major [`DenseMatrix`]. Dense
//! code paths are only used on small problems (exact commute times,
//! Laplacian eigenmaps, toy graphs), so clarity wins over blocking or
//! explicit SIMD here; the Cholesky kernels are written as contiguous
//! row updates so the compiler vectorizes them.

mod cholesky;
mod matrix;
pub mod vecops;

pub use cholesky::CholeskyFactor;
pub use matrix::DenseMatrix;
