//! [`laplacian_pinv`] on random Laplacians with one to five connected
//! components plus isolated vertices, `n ∈ 0..=60`:
//!
//! * it matches the eigendecomposition route [`sym_pinv`] entry by entry
//!   within `1e-9·(1 + |x|)`;
//! * entries between different components are exactly `0.0`;
//! * it is exactly symmetric: `(i, j)` and `(j, i)` hold the same bits,
//!   also when a component falls back to [`sym_pinv`] (forced here by a
//!   strongly negative edge weight, which makes `L + J/n` indefinite),
//!   whose own result is not;
//! * on connected input it is bit-identical to
//!   [`laplacian_pinv_cholesky`].

use cad_linalg::pinv::{laplacian_pinv, laplacian_pinv_cholesky, sym_pinv};
use cad_linalg::DenseMatrix;
use proptest::prelude::*;

const N_MAX: usize = 60;
/// Label of an isolated vertex; labels below it pick a component.
const ISOLATED: usize = 5;

/// A weighted Laplacian with its vertex → component map.
struct Instance {
    l: DenseMatrix,
    comp: Vec<usize>,
}

/// Vertex `v` joins component `labels[v] % n_comps`, or stays isolated
/// when its label is [`ISOLATED`]. Each component is connected by a
/// random spanning tree over its vertices (parent drawn among the
/// earlier ones) and gets the `extras` edges whose ends both lie in it.
fn instance(
    n: usize,
    n_comps: usize,
    labels: &[usize],
    parents: &[(f64, f64)],
    extras: &[(usize, usize, f64)],
) -> Instance {
    let mut l = DenseMatrix::zeros(n, n);
    let mut add = |u: usize, v: usize, w: f64| {
        l.add_to(u, u, w);
        l.add_to(v, v, w);
        l.add_to(u, v, -w);
        l.add_to(v, u, -w);
    };
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_comps];
    let mut comp = Vec::with_capacity(n);
    for v in 0..n {
        if labels[v] == ISOLATED {
            comp.push(n_comps + v);
            continue;
        }
        let k = labels[v] % n_comps;
        let (pick, w) = parents[v];
        let earlier = &members[k];
        if !earlier.is_empty() {
            add(earlier[(pick * earlier.len() as f64) as usize], v, w);
        }
        members[k].push(v);
        comp.push(k);
    }
    for &(u, v, w) in extras {
        if u < n && v < n && u != v && comp[u] == comp[v] {
            add(u, v, w);
        }
    }
    Instance { l, comp }
}

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// The first `(i, j)` whose bits differ from those of `(j, i)`.
fn asymmetry(m: &DenseMatrix) -> Option<(usize, usize)> {
    let n = m.nrows();
    (0..n)
        .flat_map(|i| (0..i).map(move |j| (i, j)))
        .find(|&(i, j)| m.get(i, j).to_bits() != m.get(j, i).to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matches_sym_pinv_with_exact_zeros_across_components(
        shape in (0usize..=N_MAX, 1usize..=5),
        labels in proptest::collection::vec(0usize..=ISOLATED, N_MAX),
        parents in proptest::collection::vec((0.0f64..1.0, 0.25f64..4.0), N_MAX),
        extras in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, 0.25f64..4.0), 0..120),
    ) {
        let (n, n_comps) = shape;
        let Instance { l, comp } = instance(n, n_comps, &labels, &parents, &extras);
        let p = laplacian_pinv(&l).expect("laplacian_pinv");
        let want = sym_pinv(&l, 1e-9).expect("sym_pinv");
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (p.get(i, j), want.get(i, j));
                prop_assert!(
                    (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                    "({i}, {j}): laplacian_pinv {x} vs sym_pinv {y}"
                );
                if comp[i] != comp[j] {
                    prop_assert!(x == 0.0, "({i}, {j}) crosses components but holds {x}");
                }
            }
        }
        prop_assert_eq!(asymmetry(&p), None);
    }

    #[test]
    fn fallback_components_are_mirrored(
        shape in (2usize..=N_MAX, 1usize..=5),
        labels in proptest::collection::vec(0usize..=ISOLATED, N_MAX),
        parents in proptest::collection::vec((0.0f64..1.0, 0.25f64..4.0), N_MAX),
        extras in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, 0.25f64..4.0), 0..120),
    ) {
        let (n, n_comps) = shape;
        let Instance { mut l, comp } = instance(n, n_comps, &labels, &parents, &extras);
        let members: Vec<usize> = (0..n).filter(|&v| comp[v] == 0).collect();
        prop_assume!(members.len() >= 2);
        // An edge of weight −1000 inside component 0 outweighs every
        // positive edge at its ends, so that component's `L + J/n` is
        // indefinite and its Cholesky factor fails.
        let (a, b) = (members[0], members[1]);
        l.add_to(a, a, -1000.0);
        l.add_to(b, b, -1000.0);
        l.add_to(a, b, 1000.0);
        l.add_to(b, a, 1000.0);
        let sub = DenseMatrix::from_fn(members.len(), members.len(), |i, j| {
            l.get(members[i], members[j])
        });
        prop_assert!(laplacian_pinv_cholesky(&sub).is_err());
        let p = laplacian_pinv(&l).expect("laplacian_pinv");
        prop_assert_eq!(asymmetry(&p), None);
        // The fallback block is sym_pinv's lower triangle, mirrored.
        let want = sym_pinv(&sub, 1e-9).expect("sym_pinv");
        for (i, &u) in members.iter().enumerate() {
            for (j, &v) in members.iter().enumerate().take(i + 1) {
                prop_assert_eq!(p.get(u, v).to_bits(), want.get(i, j).to_bits());
            }
        }
        for i in 0..n {
            for j in 0..n {
                if comp[i] != comp[j] {
                    prop_assert!(p.get(i, j) == 0.0, "({i}, {j}) crosses components");
                }
            }
        }
    }

    #[test]
    fn connected_input_is_bit_identical_to_cholesky(
        n in 0usize..=N_MAX,
        parents in proptest::collection::vec((0.0f64..1.0, 0.25f64..4.0), N_MAX),
        extras in proptest::collection::vec((0usize..N_MAX, 0usize..N_MAX, 0.25f64..4.0), 0..120),
    ) {
        let Instance { l, .. } = instance(n, 1, &[0; N_MAX], &parents, &extras);
        let p = laplacian_pinv(&l).expect("laplacian_pinv");
        let want = laplacian_pinv_cholesky(&l).expect("connected");
        prop_assert_eq!(bits(&p), bits(&want));
    }
}
