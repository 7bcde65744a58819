//! Sample statistics shared by every workload: nearest-rank
//! percentiles under the "ten samples beyond" tail rule, the quartiles
//! `summarize` reports, open-loop latency accounting, and the pass rule
//! of the serving rate ladder.
//!
//! Everything here is a pure function of its arguments; nothing reads
//! process-global state.

/// Tail percentiles the tail rule may report, in parts per thousand,
/// highest first.
const TAIL_CANDIDATES: [usize; 4] = [999, 990, 950, 900];

/// A tail percentile is reported only with at least this many samples
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille`-th percentile among `n`
/// samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], per_mille: usize) -> f64 {
    sorted[rank(sorted.len(), per_mille).min(sorted.len()) - 1]
}

/// The highest candidate tail percentile (parts per thousand) that has
/// at least [`MIN_BEYOND`] of `n` samples beyond it, if any does.
pub fn tail_percentile(n: usize) -> Option<usize> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= MIN_BEYOND)
}

/// Label for a percentile in parts per thousand: `p99`, `p99.9`.
pub fn percentile_label(per_mille: usize) -> String {
    if per_mille.is_multiple_of(10) {
        format!("p{}", per_mille / 10)
    } else {
        format!("p{}.{}", per_mille / 10, per_mille % 10)
    }
}

/// Median and tail of one sample set.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    /// Samples.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The percentile `tail` is, or `None` when too few samples support
    /// any candidate and `tail` is the maximum.
    pub tail_p: Option<usize>,
    /// The tail value.
    pub tail: f64,
}

impl Dist {
    /// Summarize `values` (any order). `None` when empty.
    pub fn of(values: &[f64]) -> Option<Dist> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len());
        Some(Dist {
            n: sorted.len(),
            p50: percentile(&sorted, 500),
            tail_p,
            tail: match tail_p {
                Some(p) => percentile(&sorted, p),
                None => sorted[sorted.len() - 1],
            },
        })
    }

    /// `p99`, `p95`, ... or `max` when no percentile has enough
    /// samples beyond it.
    pub fn tail_label(&self) -> String {
        self.tail_p
            .map_or_else(|| "max".to_string(), percentile_label)
    }
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) computes
/// them, so `summarize` reports the spread the way the acceptance check
/// measures it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let len = s.len();
    if len < 2 {
        return (s[0], s[0]);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// When one open-loop request was due, went out, and completed, plus
/// when the previous request on the same connection completed (all in
/// seconds on one clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time.
    pub sent: f64,
    /// Response fully read.
    pub done: f64,
    /// The connection's previous response (0 for the first request).
    pub prev_done: f64,
}

impl Timing {
    /// Latency charged to the request: from when it was *due*, so a
    /// stall that delays later sends counts against every request it
    /// delays.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How far the send trailed its due time, for any reason.
    pub fn backlog(&self) -> f64 {
        (self.sent - self.due).max(0.0)
    }

    /// Lateness the generator itself caused: how far the send trailed
    /// both its due time and the moment its connection became free.
    pub fn gen_lateness(&self) -> f64 {
        (self.sent - self.due.max(self.prev_done)).max(0.0)
    }
}

/// How much the backlog grew across a rung: the median backlog of the
/// last quarter of requests (in due order) minus that of the first
/// quarter. A server that keeps up shows no growth.
pub fn backlog_growth(backlogs_in_due_order: &[f64]) -> f64 {
    let n = backlogs_in_due_order.len();
    if n < 4 {
        return 0.0;
    }
    let q = n / 4;
    median(&backlogs_in_due_order[n - q..]) - median(&backlogs_in_due_order[..q])
}

/// The outcome of one fixed-rate phase of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Tail latency from due time, ms.
    pub tail_ms: f64,
    /// [`backlog_growth`] across the rung, ms.
    pub growth_ms: f64,
    /// Failed or refused requests.
    pub failures: usize,
}

impl Rung {
    /// A rung passes when nothing failed, its tail latency meets the
    /// SLO, and its backlog grew by no more than a quarter of the SLO.
    pub fn passes(&self, slo_ms: f64) -> bool {
        self.failures == 0 && self.tail_ms <= slo_ms && self.growth_ms <= slo_ms / 4.0
    }
}

/// Ladder rates: `nominal · ratio^i` for rungs `i = 1..=rungs`.
pub fn ladder_rates(nominal: f64, ratio: f64, rungs: usize) -> Vec<f64> {
    (1..=rungs)
        .map(|i| nominal * ratio.powi(i as i32))
        .collect()
}

/// The sustainable rate from rungs run in increasing-rate order (the
/// ladder stops after the first failing rung), and whether a failing
/// rung bounds it from above.
///
/// Rung rates are quantized, so the value is interpolated: between the
/// last passing rung and the first failing one, at the rate where the
/// tail latency — log-linear in rate — would reach the SLO. A rung that
/// failed on errors or backlog growth alone does not interpolate.
pub fn sustainable_rate(rungs: &[Rung], slo_ms: f64) -> (f64, bool) {
    let Some(f) = rungs.iter().position(|r| !r.passes(slo_ms)) else {
        return (rungs.last().map_or(0.0, |r| r.rate), false);
    };
    let fail = rungs[f];
    let tail_limited = fail.failures == 0 && fail.tail_ms > slo_ms;
    if f == 0 {
        let share = if tail_limited {
            slo_ms / fail.tail_ms
        } else {
            0.5
        };
        return (fail.rate * share, true);
    }
    let pass = rungs[f - 1];
    if !tail_limited || fail.tail_ms <= pass.tail_ms {
        return (pass.rate, true);
    }
    let frac = ((slo_ms / pass.tail_ms).ln() / (fail.tail_ms / pass.tail_ms).ln()).clamp(0.0, 1.0);
    (pass.rate * (fail.rate / pass.rate).powf(frac), true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(999));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(1_000), Some(990));
        assert_eq!(tail_percentile(999), Some(950));
        assert_eq!(tail_percentile(200), Some(950));
        assert_eq!(tail_percentile(199), Some(900));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(5), None);
        // Exactly ten samples lie beyond the reported percentile.
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&values).unwrap();
        assert_eq!(d.tail_label(), "p99");
        assert_eq!(values.iter().filter(|&&v| v > d.tail).count(), 10);
        assert_eq!(d.p50, 500.0);
        // Too few samples: the tail falls back to the maximum.
        let d = Dist::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((d.tail_label().as_str(), d.tail, d.p50), ("max", 3.0, 2.0));
        assert_eq!(percentile_label(999), "p99.9");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_runs_from_due_time_when_the_generator_is_late() {
        // Due at 1.000 s, the connection was busy until 1.004 s, the
        // send went out at 1.005 s and the response landed at 1.007 s.
        let t = Timing {
            due: 1.000,
            sent: 1.005,
            done: 1.007,
            prev_done: 1.004,
        };
        assert!((t.latency() - 0.007).abs() < 1e-12, "not 2 ms of service");
        assert!((t.backlog() - 0.005).abs() < 1e-12);
        assert!((t.gen_lateness() - 0.001).abs() < 1e-12);
        // On time: latency is the service time alone.
        let on_time = Timing {
            due: 2.0,
            sent: 2.0,
            done: 2.003,
            prev_done: 1.5,
        };
        assert!((on_time.latency() - 0.003).abs() < 1e-12);
        assert_eq!(on_time.gen_lateness(), 0.0);
    }

    #[test]
    fn backlog_growth_compares_first_and_last_quarters() {
        let steady = [1.0, 0.0, 2.0, 1.0, 0.0, 3.0, 1.0, 0.0];
        assert_eq!(backlog_growth(&steady), 0.0);
        let growing: Vec<f64> = (0..8).map(|i| i as f64 * 10.0).collect();
        assert_eq!(backlog_growth(&growing), 60.0);
    }

    #[test]
    fn ladder_passes_stops_and_interpolates() {
        let rung = |rate, tail_ms, growth_ms| Rung {
            rate,
            tail_ms,
            growth_ms,
            failures: 0,
        };
        let slo = 10.0;
        assert!(rung(100.0, 10.0, 2.5).passes(slo));
        assert!(!rung(100.0, 10.1, 0.0).passes(slo), "tail over SLO");
        assert!(!rung(100.0, 5.0, 2.6).passes(slo), "backlog growing");
        let refused = Rung {
            failures: 1,
            ..rung(100.0, 1.0, 0.0)
        };
        assert!(!refused.passes(slo), "a failed request fails the rung");

        let rates = ladder_rates(100.0, 1.2, 3);
        assert!((rates[2] - 172.8).abs() < 1e-9);

        // Passing rungs only: the top rate is a lower bound.
        let ok = [rung(100.0, 2.0, 0.0), rung(120.0, 3.0, 0.0)];
        assert_eq!(sustainable_rate(&ok, slo), (120.0, false));
        // Tail crosses the SLO halfway (in log space) between two rungs.
        let crossing = [rung(100.0, 5.0, 0.0), rung(120.0, 20.0, 0.0)];
        let (rate, bounded) = sustainable_rate(&crossing, slo);
        assert!(bounded);
        assert!((rate - 100.0 * 1.2f64.sqrt()).abs() < 1e-9, "{rate}");
        // A rung failing only on backlog growth does not interpolate.
        let backlog = [rung(100.0, 5.0, 0.0), rung(120.0, 8.0, 9.0)];
        assert_eq!(sustainable_rate(&backlog, slo), (100.0, true));
        // Rungs after the first failure are ignored.
        let later = [
            rung(100.0, 5.0, 0.0),
            rung(120.0, 20.0, 0.0),
            rung(144.0, 1.0, 0.0),
        ];
        assert_eq!(
            sustainable_rate(&later, slo),
            sustainable_rate(&crossing, slo)
        );
    }
}
