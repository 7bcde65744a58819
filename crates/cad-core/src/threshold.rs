//! Anomalous-set selection and automatic threshold choice.
//!
//! Paper §2.4.1: with a decomposable distance, the minimal anomalous set
//! `E_t` at level `δ` is the smallest prefix of the descending score
//! order such that the *left-out* mass drops below `δ`:
//!
//! ```text
//! E_t = smallest S with Σ_{e ∉ S} ΔE_t(e) < δ
//! ```
//!
//! Paper §4.2 automates picking `δ`: given a target of `l` anomalous
//! nodes per transition on average, choose one global `δ` such that
//! `Σ_t |V_t| = l·(T−1)`. A single global threshold — rather than a
//! per-transition top-`l` — is what lets quiet transitions report *no*
//! anomalies and busy transitions report more than `l`.

use crate::scores::EdgeScore;

/// How the per-transition anomaly sets are cut from the score lists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThresholdPolicy {
    /// Use an explicit `δ` (paper Algorithm 1 input).
    Fixed(f64),
    /// Choose `δ` so the *average* number of anomalous nodes per
    /// transition is `l` (paper §4.2).
    TargetNodesPerTransition(usize),
    /// Keep the top `k` edges of every transition (a simpler baseline
    /// policy, kept for ablation — the paper argues against it).
    TopEdgesPerTransition(usize),
}

/// Number of leading edges of a **descending** score list selected at
/// level `delta` (the `|E_t|` of paper §2.4.1).
pub fn select_prefix(scores_desc: &[EdgeScore], delta: f64) -> usize {
    debug_assert!(
        scores_desc.windows(2).all(|w| w[0].score >= w[1].score),
        "scores must be sorted descending"
    );
    let total: f64 = scores_desc.iter().map(|e| e.score).sum();
    if total < delta {
        return 0;
    }
    let mut remaining = total;
    for (idx, e) in scores_desc.iter().enumerate() {
        remaining -= e.score;
        if remaining < delta {
            return idx + 1;
        }
    }
    scores_desc.len()
}

/// One transition's score list, tabulated so that [`select_prefix`] and
/// the node count of any prefix are each one binary search away.
struct PrefixTable {
    /// `Σ score`, summed as [`select_prefix`] sums it.
    total: f64,
    /// `floor[j]`: the least `remaining` [`select_prefix`] has seen once
    /// it subtracted score `j`. The first `j` whose `remaining` drops
    /// below `δ` is the first whose `floor` does, and `floor` never
    /// increases, so it can be bisected.
    floor: Vec<f64>,
    /// `(p, count)` at every prefix length `p` where the number of
    /// distinct nodes with a positive node score over the first `p`
    /// edges (as [`crate::node_scores::node_scores_from_edges`] sums
    /// them) changes. Scores are non-negative, so a node turns positive
    /// at most once: at most `n` steps, where `floor` holds one entry
    /// per edge.
    steps: Vec<(usize, usize)>,
}

impl PrefixTable {
    fn new(scores_desc: &[EdgeScore], n_nodes: usize) -> PrefixTable {
        let total: f64 = scores_desc.iter().map(|e| e.score).sum();
        let mut floor = Vec::with_capacity(scores_desc.len());
        let mut steps = Vec::new();
        let (mut remaining, mut least) = (total, f64::NAN);
        let mut node_score = vec![0.0; n_nodes];
        let mut positive = 0;
        for (j, e) in scores_desc.iter().enumerate() {
            remaining -= e.score;
            least = least.min(remaining);
            floor.push(least);
            for x in [e.u, e.v] {
                let was = node_score[x] > 0.0;
                node_score[x] += e.score;
                positive += usize::from(node_score[x] > 0.0);
                positive -= usize::from(was);
            }
            if steps.last().map_or(0, |&(_, count)| count) != positive {
                steps.push((j + 1, positive));
            }
        }
        PrefixTable {
            total,
            floor,
            steps,
        }
    }

    /// `select_prefix(scores_desc, delta)`.
    fn prefix(&self, delta: f64) -> usize {
        if self.total < delta {
            return 0;
        }
        let first_below = self
            .floor
            .partition_point(|r| r.partial_cmp(&delta) != Some(std::cmp::Ordering::Less));
        (first_below + 1).min(self.floor.len())
    }

    /// `|V_t(δ)|`.
    fn nodes_at(&self, delta: f64) -> usize {
        let p = self.prefix(delta);
        let past = self.steps.partition_point(|&(q, _)| q <= p);
        past.checked_sub(1).map_or(0, |i| self.steps[i].1)
    }
}

/// Choose a single global `δ` such that `Σ_t |V_t| ≈ l·(T−1)`
/// (paper §4.2), by bisection over the anomaly-mass range.
///
/// `target_total_nodes = l·(T−1)`. Node counts are integers, so the
/// target may be unattainable exactly; the returned `δ` is the smallest
/// tested level whose node count does not exceed the target (falling
/// back to the closest achievable count).
pub fn choose_delta(
    transitions: &[Vec<EdgeScore>],
    n_nodes: usize,
    target_total_nodes: usize,
) -> f64 {
    let tables: Vec<PrefixTable> = transitions
        .iter()
        .map(|s| PrefixTable::new(s, n_nodes))
        .collect();
    let max_total = tables.iter().map(|t| t.total).fold(0.0f64, f64::max);
    if max_total == 0.0 {
        return f64::MIN_POSITIVE; // No anomaly mass anywhere.
    }
    // δ slightly above the largest per-transition total selects nothing;
    // δ → 0 selects every positive-score edge.
    let (mut lo, mut hi) = (0.0f64, max_total * (1.0 + 1e-9) + f64::MIN_POSITIVE);
    // Bisect: node count is non-increasing in δ.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let count: usize = tables.iter().map(|t| t.nodes_at(mid)).sum();
        if count > target_total_nodes {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Apply a [`ThresholdPolicy`], returning the δ in effect (`None` for
/// the δ-free top-k policy) and the per-transition number of selected
/// edges.
pub fn apply_policy(
    transitions: &[Vec<EdgeScore>],
    n_nodes: usize,
    n_transitions_total: usize,
    policy: ThresholdPolicy,
) -> (Option<f64>, Vec<usize>) {
    match policy {
        ThresholdPolicy::Fixed(delta) => {
            let counts = transitions
                .iter()
                .map(|s| select_prefix(s, delta))
                .collect();
            (Some(delta), counts)
        }
        ThresholdPolicy::TargetNodesPerTransition(l) => {
            let delta = choose_delta(transitions, n_nodes, l * n_transitions_total);
            let counts = transitions
                .iter()
                .map(|s| select_prefix(s, delta))
                .collect();
            (Some(delta), counts)
        }
        ThresholdPolicy::TopEdgesPerTransition(k) => {
            let counts = transitions.iter().map(|s| s.len().min(k)).collect();
            (None, counts)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node_scores::node_scores_from_edges;
    use proptest::prelude::*;

    fn e(u: usize, v: usize, score: f64) -> EdgeScore {
        EdgeScore {
            u,
            v,
            score,
            d_weight: 0.0,
            d_commute: 0.0,
        }
    }

    #[test]
    fn select_prefix_basics() {
        let s = vec![e(0, 1, 10.0), e(1, 2, 5.0), e(2, 3, 1.0)];
        // total = 16. δ=20 > total → nothing anomalous.
        assert_eq!(select_prefix(&s, 20.0), 0);
        // δ=7: drop 10 → remaining 6 ≥ 7? no, 6 < 7 → prefix 1.
        assert_eq!(select_prefix(&s, 7.0), 1);
        // δ=6: after 10 remaining 6, not < 6; after 5 remaining 1 < 6 → 2.
        assert_eq!(select_prefix(&s, 6.0), 2);
        // δ=0.5: need remaining < 0.5 → all three.
        assert_eq!(select_prefix(&s, 0.5), 3);
        // Tiny positive δ keeps everything with positive score.
        assert_eq!(select_prefix(&s, f64::MIN_POSITIVE), 3);
    }

    #[test]
    fn select_prefix_empty() {
        assert_eq!(select_prefix(&[], 1.0), 0);
    }

    #[test]
    fn choose_delta_hits_target() {
        // Transition A: one dominant edge; transition B: quiet.
        let trans = vec![
            vec![e(0, 1, 100.0), e(2, 3, 1.0), e(3, 4, 0.5)],
            vec![e(5, 6, 0.8), e(6, 7, 0.1)],
        ];
        // Target 2 nodes total → only the dominant edge of A selected.
        let delta = choose_delta(&trans, 8, 2);
        assert_eq!(select_prefix(&trans[0], delta), 1);
        assert_eq!(select_prefix(&trans[1], delta), 0);
    }

    #[test]
    fn choose_delta_busy_transitions_get_more() {
        // One very busy transition and one quiet one; target 4 nodes.
        let trans = vec![
            vec![e(0, 1, 50.0), e(2, 3, 40.0), e(4, 5, 30.0)],
            vec![e(6, 7, 0.01)],
        ];
        let delta = choose_delta(&trans, 8, 4);
        let busy = select_prefix(&trans[0], delta);
        let quiet = select_prefix(&trans[1], delta);
        assert!(busy >= 2, "busy transition got {busy}");
        assert_eq!(quiet, 0, "quiet transition should stay quiet");
    }

    #[test]
    fn choose_delta_no_mass() {
        let trans: Vec<Vec<EdgeScore>> = vec![vec![], vec![]];
        let delta = choose_delta(&trans, 4, 3);
        assert!(delta > 0.0);
        assert_eq!(select_prefix(&[], delta), 0);
    }

    /// `choose_delta` as it read before [`PrefixTable`]: every probe
    /// reruns `select_prefix` and `node_scores_from_edges`.
    fn choose_delta_by_rescan(
        transitions: &[Vec<EdgeScore>],
        n_nodes: usize,
        target_total_nodes: usize,
    ) -> f64 {
        let total_nodes_at = |delta: f64| -> usize {
            transitions
                .iter()
                .map(|scores| {
                    let k = select_prefix(scores, delta);
                    let ns = node_scores_from_edges(n_nodes, &scores[..k]);
                    ns.iter().filter(|&&v| v > 0.0).count()
                })
                .sum()
        };
        let max_total = transitions
            .iter()
            .map(|s| s.iter().map(|e| e.score).sum::<f64>())
            .fold(0.0f64, f64::max);
        if max_total == 0.0 {
            return f64::MIN_POSITIVE;
        }
        let (mut lo, mut hi) = (0.0f64, max_total * (1.0 + 1e-9) + f64::MIN_POSITIVE);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if total_nodes_at(mid) > target_total_nodes {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Transitions over 8 nodes from `(u, v, score code)` triples: codes
    /// below 8 are the tie-prone scores `0, 0.5, …, 3.5` (zero
    /// included), the rest spread over `(0, 40)`.
    fn transitions_from(raw: Vec<Vec<(usize, usize, u32)>>) -> Vec<Vec<EdgeScore>> {
        raw.into_iter()
            .map(|edges| {
                let mut scores: Vec<EdgeScore> = edges
                    .into_iter()
                    .map(|(u, v, code)| {
                        let score = if code < 8 {
                            0.5 * code as f64
                        } else {
                            (code as f64 * 0.618_033_988_749_895).fract() * 40.0
                        };
                        e(u, v, score)
                    })
                    .collect();
                scores.sort_by(|a, b| b.score.total_cmp(&a.score));
                scores
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prefix_tables_choose_the_rescan_delta_bitwise(
            raw in proptest::collection::vec(
                proptest::collection::vec((0usize..8, 0usize..8, 0u32..16), 0..24),
                0..6,
            ),
            target in 0usize..24,
        ) {
            let transitions = transitions_from(raw);
            let new = choose_delta(&transitions, 8, target);
            let old = choose_delta_by_rescan(&transitions, 8, target);
            prop_assert_eq!(new.to_bits(), old.to_bits());
            for scores in &transitions {
                let table = PrefixTable::new(scores, 8);
                for delta in [new, 0.0, 0.25, 0.5, 1.0, 3.5, 7.0, 1e3] {
                    let k = select_prefix(scores, delta);
                    prop_assert_eq!(table.prefix(delta), k);
                    let ns = node_scores_from_edges(8, &scores[..k]);
                    let count = ns.iter().filter(|&&v| v > 0.0).count();
                    prop_assert_eq!(table.nodes_at(delta), count);
                }
            }
        }
    }

    #[test]
    fn apply_policy_variants() {
        let trans = vec![vec![e(0, 1, 10.0), e(1, 2, 5.0)], vec![e(2, 3, 2.0)]];
        let (d, counts) = apply_policy(&trans, 4, 2, ThresholdPolicy::Fixed(6.0));
        assert_eq!(d, Some(6.0));
        assert_eq!(counts, vec![1, 0]);
        let (d, counts) = apply_policy(&trans, 4, 2, ThresholdPolicy::TopEdgesPerTransition(1));
        assert_eq!(d, None);
        assert_eq!(counts, vec![1, 1]);
        let (_, counts) = apply_policy(&trans, 4, 2, ThresholdPolicy::TargetNodesPerTransition(1));
        // Target 2 nodes total: the strongest edge only.
        assert_eq!(counts, vec![1, 0]);
    }
}
