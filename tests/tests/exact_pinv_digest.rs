//! Pins the bits of the exact engine's `L⁺` on the paper's §4.1 GMM
//! benchmark at the size the dense-batch workload runs (n = 400).
//!
//! The digests were recorded when the inverse's back sweep began to
//! compute only the lower triangle and mirror it, which changed the
//! upper triangle's last bits (it used to be computed on its own, and
//! differed from the lower one in most off-diagonal pairs). The lower
//! triangle keeps the bits of the scalar column-by-column Cholesky it
//! descends from. Any change to the order of a single floating-point
//! operation in the factor, the inverse or the `1/n` correction shows up
//! here.

use cad_commute::{oracle_to_bytes, ExactCommute};
use cad_datasets::gmm::{GmmBenchmark, GmmBenchmarkOptions};

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[test]
fn gmm_n400_exact_pinv_digest() {
    let bench = GmmBenchmark::generate(&GmmBenchmarkOptions::with_n(400)).expect("gmm");
    let digests: Vec<u64> = bench
        .seq
        .graphs()
        .iter()
        .map(|g| {
            assert!(
                g.is_connected(),
                "the Cholesky route needs a connected graph"
            );
            fnv(&oracle_to_bytes(&ExactCommute::compute(g).expect("exact")))
        })
        .collect();
    assert_eq!(
        digests,
        [0x7964018a52060c06, 0xc15f6fa10edf45a9],
        "digests {digests:#018x?}"
    );
}
