//! ROC curves and AUC.

/// A receiver-operating-characteristic curve: `(fpr, tpr)` points from
/// `(0, 0)` to `(1, 1)`, non-decreasing in both coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// Curve points, starting at `(0, 0)` and ending at `(1, 1)`.
    pub points: Vec<(f64, f64)>,
}

impl RocCurve {
    /// Area under the curve by trapezoidal integration.
    pub fn auc(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| {
                let (x0, y0) = w[0];
                let (x1, y1) = w[1];
                (x1 - x0) * 0.5 * (y0 + y1)
            })
            .sum()
    }

    /// Interpolated TPR at the given FPR (linear between points).
    pub fn tpr_at(&self, fpr: f64) -> f64 {
        let fpr = fpr.clamp(0.0, 1.0);
        for w in self.points.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            if fpr <= x1 {
                if x1 == x0 {
                    // Vertical segment: report the higher TPR reached there.
                    return y1;
                }
                return y0 + (y1 - y0) * (fpr - x0) / (x1 - x0);
            }
        }
        1.0
    }
}

/// Build the ROC curve for scores vs boolean labels, sweeping the
/// decision threshold from `+∞` down. Ties in score advance both
/// coordinates at once (the standard convention, which makes the result
/// threshold-order independent).
///
/// Degenerate inputs (no positives or no negatives) yield the diagonal
/// from `(0,0)` to `(1,1)` so downstream averaging stays well-defined.
pub fn roc_curve(scores: &[f64], labels: &[bool]) -> RocCurve {
    assert_eq!(scores.len(), labels.len(), "scores and labels must align");
    let p = labels.iter().filter(|&&l| l).count();
    let n = labels.len() - p;
    if p == 0 || n == 0 {
        return RocCurve {
            points: vec![(0.0, 0.0), (1.0, 1.0)],
        };
    }

    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).expect("finite scores"));

    let mut points = Vec::with_capacity(scores.len() + 2);
    points.push((0.0, 0.0));
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut idx = 0;
    while idx < order.len() {
        // Consume the whole tie group before emitting a point.
        let s = scores[order[idx]];
        while idx < order.len() && scores[order[idx]] == s {
            if labels[order[idx]] {
                tp += 1;
            } else {
                fp += 1;
            }
            idx += 1;
        }
        points.push((fp as f64 / n as f64, tp as f64 / p as f64));
    }
    RocCurve { points }
}

/// AUC directly via the Mann–Whitney statistic (probability that a
/// random positive outscores a random negative, ties counting ½).
/// Equals the trapezoidal area of [`roc_curve`].
pub fn auc(scores: &[f64], labels: &[bool]) -> f64 {
    roc_curve(scores, labels).auc()
}

/// Vertically average several ROC curves on a uniform FPR grid with
/// `grid + 1` points — the standard way to average over Monte-Carlo
/// realizations (Figure 6 averages 100 of them).
pub fn average_roc(curves: &[RocCurve], grid: usize) -> RocCurve {
    assert!(grid >= 1, "need at least a 2-point grid");
    assert!(!curves.is_empty(), "need at least one curve");
    let points = (0..=grid)
        .map(|g| {
            let fpr = g as f64 / grid as f64;
            let mean_tpr = curves.iter().map(|c| c.tpr_at(fpr)).sum::<f64>() / curves.len() as f64;
            (fpr, mean_tpr)
        })
        .collect();
    RocCurve { points }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_separation() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        let c = roc_curve(&scores, &labels);
        assert!((c.auc() - 1.0).abs() < 1e-12);
        assert!((auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverted_separation() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let labels = [true, true, false, false];
        assert!(auc(&scores, &labels).abs() < 1e-12);
    }

    #[test]
    fn all_tied_is_half() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn known_partial_auc() {
        // scores: pos {3, 1}, neg {2, 0}. Pairs: (3>2),(3>0),(1<2),(1>0)
        // → 3/4 concordant → AUC = 0.75.
        let scores = [3.0, 1.0, 2.0, 0.0];
        let labels = [true, true, false, false];
        assert!((auc(&scores, &labels) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn degenerate_labels_give_diagonal() {
        let c = roc_curve(&[1.0, 2.0], &[true, true]);
        assert_eq!(c.points, vec![(0.0, 0.0), (1.0, 1.0)]);
        assert!((c.auc() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tpr_interpolation() {
        let c = RocCurve {
            points: vec![(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)],
        };
        assert!((c.tpr_at(0.25) - 0.5).abs() < 1e-12);
        assert!((c.tpr_at(0.75) - 1.0).abs() < 1e-12);
        assert_eq!(c.tpr_at(-1.0), 0.0);
        assert_eq!(c.tpr_at(2.0), 1.0);
    }

    #[test]
    fn averaging_two_curves() {
        let a = RocCurve {
            points: vec![(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
        }; // perfect
        let b = RocCurve {
            points: vec![(0.0, 0.0), (1.0, 1.0)],
        }; // diagonal
        let avg = average_roc(&[a, b], 4);
        // At fpr 0.5: (1.0 + 0.5)/2 = 0.75.
        assert!((avg.tpr_at(0.5) - 0.75).abs() < 1e-12);
        assert!((avg.auc() - 0.75).abs() < 1e-2);
    }

    proptest! {
        #[test]
        fn prop_auc_in_unit_interval(
            scores in proptest::collection::vec(-10.0f64..10.0, 2..40),
            seed in 0u64..1000,
        ) {
            let labels: Vec<bool> =
                (0..scores.len()).map(|i| (i as u64 + seed).is_multiple_of(3)).collect();
            let a = auc(&scores, &labels);
            prop_assert!((0.0..=1.0).contains(&a));
        }

        #[test]
        fn prop_monotone_transform_invariant(
            scores in proptest::collection::vec(0.1f64..10.0, 4..30),
        ) {
            let labels: Vec<bool> = (0..scores.len()).map(|i| i % 2 == 0).collect();
            let transformed: Vec<f64> = scores.iter().map(|s| s.ln() * 3.0 + 1.0).collect();
            let a1 = auc(&scores, &labels);
            let a2 = auc(&transformed, &labels);
            prop_assert!((a1 - a2).abs() < 1e-12);
        }

        #[test]
        fn prop_curve_monotone(
            scores in proptest::collection::vec(-5.0f64..5.0, 4..30),
        ) {
            let labels: Vec<bool> = (0..scores.len()).map(|i| i % 3 == 0).collect();
            let c = roc_curve(&scores, &labels);
            for w in c.points.windows(2) {
                prop_assert!(w[1].0 >= w[0].0);
                prop_assert!(w[1].1 >= w[0].1);
            }
            prop_assert_eq!(*c.points.first().unwrap(), (0.0, 0.0));
            prop_assert_eq!(*c.points.last().unwrap(), (1.0, 1.0));
        }
    }
}
