//! Privacy verification: Table-4 mechanism simulators and an empirical
//! differential-privacy tester.
//!
//! The paper proves (Theorems 10/11) that the update patterns produced by
//! DP-Timer and DP-ANT are ε-DP by rewriting each strategy as a mechanism
//! that outputs the update volumes instead of signalling the update protocol
//! (`M_timer` and `M_ANT`, Table 4).  This module implements those rewritten
//! mechanisms directly over an arrival bit-stream and adds a stochastic
//! tester that estimates the odds ratio
//! `Pr[M(D) ∈ O] / Pr[M(D') ∈ O]` over neighboring growing databases — the
//! executable counterpart of the proofs, and a regression net for anyone who
//! modifies the strategies.

use crate::strategy::{CacheFlush, SyncDecision, SyncStrategy, TickContext};
use crate::timeline::Timestamp;
use dpsync_dp::{DpRng, Epsilon};
use dpsync_edb::UpdatePattern;
use std::collections::HashMap;

/// An arrival stream: `arrivals[t - 1]` is the number of records received at
/// time `t` (the paper's base model uses 0 or 1).
pub type ArrivalStream = Vec<u64>;

/// Builds a pair of neighboring growing databases: identical streams except
/// that the second has one extra record at `diff_time` (1-based).
pub fn neighboring_streams(
    base: &ArrivalStream,
    diff_time: usize,
) -> (ArrivalStream, ArrivalStream) {
    assert!(
        diff_time >= 1 && diff_time <= base.len(),
        "diff_time out of range"
    );
    let mut with_extra = base.clone();
    with_extra[diff_time - 1] += 1;
    (base.clone(), with_extra)
}

/// Runs any strategy as a Table-4-style mechanism: feeds it the arrival
/// stream and records the update pattern it would produce (setup volume at
/// t = 0 plus every posted update).
pub fn simulate_update_pattern(
    strategy: &mut dyn SyncStrategy,
    initial_size: u64,
    arrivals: &ArrivalStream,
    rng: &mut DpRng,
) -> UpdatePattern {
    let mut pattern = UpdatePattern::new();
    let mut cache_len = initial_size;

    let setup_volume = strategy.initial_fetch(initial_size, rng);
    pattern.record(0, setup_volume);
    cache_len = cache_len.saturating_sub(setup_volume);

    for (i, &arrived) in arrivals.iter().enumerate() {
        let time = Timestamp((i + 1) as u64);
        cache_len += arrived;
        let ctx = TickContext {
            time,
            arrived,
            cache_len,
        };
        if let SyncDecision::Sync { fetch, .. } = strategy.on_tick(&ctx, rng) {
            if fetch > 0 {
                pattern.record(time.value(), fetch);
                cache_len = cache_len.saturating_sub(fetch);
            }
        }
    }
    pattern
}

/// The statistic of an update pattern over which the tester builds its
/// histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternStatistic {
    /// Total volume uploaded over the whole run.
    TotalVolume,
    /// Volume of the first update at or after the given time (0 when none).
    VolumeAfter(u64),
    /// Number of updates posted.
    UpdateCount,
}

impl PatternStatistic {
    /// Evaluates the statistic on a pattern.
    pub fn evaluate(self, pattern: &UpdatePattern) -> u64 {
        match self {
            PatternStatistic::TotalVolume => pattern.total_volume(),
            PatternStatistic::UpdateCount => pattern.len() as u64,
            PatternStatistic::VolumeAfter(t) => pattern
                .events()
                .iter()
                .find(|e| e.time >= t)
                .map_or(0, |e| e.volume),
        }
    }
}

/// The result of an empirical odds-ratio test.
#[derive(Debug, Clone, PartialEq)]
pub struct DpTestResult {
    /// Largest observed probability ratio across well-populated buckets.
    pub max_ratio: f64,
    /// The theoretical bound `e^ε`.
    pub bound: f64,
    /// Number of buckets that were compared.
    pub buckets_compared: usize,
    /// Largest observed probability ratio across well-populated *tail*
    /// events (`{X ≥ v}` and `{X ≤ v}`).  Tail counts accumulate, so their
    /// estimates carry far less sampling slack than point buckets — this is
    /// the tight half of the verdict.
    pub max_tail_ratio: f64,
    /// Number of tail events that were compared.
    pub tail_events_compared: usize,
    /// Number of trials per database.
    pub trials: u32,
    /// The worst compared event's `ratio / (bound · tolerance)`, taken over
    /// point buckets *and* tail events: the test passes while this stays
    /// ≤ 1, so `1 / worst_margin` is the multiplicative headroom the
    /// mechanism has before the verdict would flip.
    pub worst_margin: f64,
    /// Whether every compared event's ratio stays within its
    /// statistically-corrected bound.
    pub passes: bool,
}

impl DpTestResult {
    /// Multiplicative headroom before the test would fail (≥ 1 iff passing;
    /// `1.2` means the worst observed ratio could grow 20% before flipping
    /// the verdict).  A vacuous run with no comparable buckets has no
    /// evidence either way and reports `0.0` (and `passes == false`).
    pub fn headroom(&self) -> f64 {
        if self.buckets_compared == 0 {
            0.0
        } else if self.worst_margin > 0.0 {
            1.0 / self.worst_margin
        } else {
            f64::INFINITY
        }
    }
}

/// Estimates the odds ratio of a mechanism's output distribution over two
/// neighboring arrival streams.
///
/// `run` is called `trials` times per stream with independent RNGs and must
/// return the statistic value for that run.  A point bucket is compared only
/// when it reaches `min_bucket_count` in *each* histogram; a bucket heavy on
/// one side but below threshold on the other is skipped there, so strictly
/// one-sided point violations are caught only through the tail events below
/// (and the `passes == false` verdict on zero comparable buckets, as in the
/// deterministic-SUR regression test, remains the safety net for the fully
/// disjoint case).
///
/// # Acceptance bound
///
/// Theorems 10/11 guarantee `Pr[M(D) ∈ O] ≤ e^ε · Pr[M(D') ∈ O]` for every
/// output event `O` (Definition 5), so each bucket's *true* odds ratio is at
/// most `e^ε` — and for Laplace-noised counts most buckets sit exactly at
/// that bound, which is why a flat multiplicative slack either fails
/// spuriously or hides real violations.  The corrected check compares each
/// bucket against `e^ε · exp(z·σ̂)`, where `σ̂ = sqrt(1/a + 1/b)` is the
/// delta-method standard error of the log odds `ln(a/b)` for Poisson bucket
/// counts `a`, `b`: the estimator `ln(a/b)` of a true log-ratio `≤ ε` is
/// within `z·σ̂` of it except with probability `≈ 2Φ(−z)` per bucket.  With
/// `z = 4` and the bucket sizes used here (thousands of counts), a correct
/// mechanism passes with clear headroom and a broken one (ratio > e^ε by any
/// constant factor) still fails once `σ̂` shrinks below the violation.
///
/// # Tail events
///
/// Point buckets in a noise distribution's tail hold few trials, so their
/// `σ̂` — and therefore their slack — is large: a far-tail bucket can show an
/// observed ratio well above `e^ε` and still pass inside its tolerance.  The
/// test therefore also compares every one-sided *tail* event `{X ≥ v}` and
/// `{X ≤ v}` (Definition 5 quantifies over all events, so the same `e^ε`
/// bound applies).  Tail counts accumulate toward the full trial count,
/// shrinking `σ̂` by an order of magnitude exactly where point buckets are
/// weakest; `sqrt(1/a + 1/b)` over-states a binomial tail's standard error
/// (it omits the negative `-2/n` finite-population terms), so the tolerance
/// stays conservative.  Tail events also restore sensitivity to one-sided
/// violations: outlier mass on one side joins every enclosing tail and
/// inflates its ratio even when its own point bucket is skipped.
pub fn empirical_odds_ratio(
    epsilon: Epsilon,
    trials: u32,
    min_bucket_count: u32,
    z: f64,
    seed: u64,
    mut run: impl FnMut(bool, &mut DpRng) -> u64,
) -> DpTestResult {
    let root = DpRng::seed_from_u64(seed);
    let mut histogram_a: HashMap<u64, u32> = HashMap::new();
    let mut histogram_b: HashMap<u64, u32> = HashMap::new();
    for trial in 0..trials {
        let mut rng_a = root.derive_indexed("dp-test/a", u64::from(trial));
        let mut rng_b = root.derive_indexed("dp-test/b", u64::from(trial));
        *histogram_a.entry(run(false, &mut rng_a)).or_insert(0) += 1;
        *histogram_b.entry(run(true, &mut rng_b)).or_insert(0) += 1;
    }

    let bound = epsilon.value().exp();
    // The symmetric observed ratio and its corrected margin for an event with
    // counts `a` and `b`; `None` when either side is too thin to compare.
    let compare = |a: u32, b: u32| -> Option<(f64, f64)> {
        if a >= min_bucket_count && b >= min_bucket_count {
            let ratio = f64::from(a) / f64::from(b);
            let ratio = ratio.max(1.0 / ratio);
            let tolerance = (z * (1.0 / f64::from(a) + 1.0 / f64::from(b)).sqrt()).exp();
            Some((ratio, ratio / (bound * tolerance)))
        } else {
            None
        }
    };

    let mut max_ratio: f64 = 1.0;
    let mut worst_margin: f64 = 0.0;
    let mut buckets_compared = 0usize;
    let keys: std::collections::BTreeSet<u64> = histogram_a
        .keys()
        .chain(histogram_b.keys())
        .copied()
        .collect();
    let counts: Vec<(u32, u32)> = keys
        .iter()
        .map(|key| {
            (
                histogram_a.get(key).copied().unwrap_or(0),
                histogram_b.get(key).copied().unwrap_or(0),
            )
        })
        .collect();
    for &(a, b) in &counts {
        if let Some((ratio, margin)) = compare(a, b) {
            max_ratio = max_ratio.max(ratio);
            worst_margin = worst_margin.max(margin);
            buckets_compared += 1;
        }
    }

    // Tail events {X ≤ v} (running prefix) and {X ≥ v} (running suffix) over
    // the same value grid.
    let mut max_tail_ratio: f64 = 1.0;
    let mut tail_events_compared = 0usize;
    let total: (u32, u32) = counts
        .iter()
        .fold((0, 0), |acc, &(a, b)| (acc.0 + a, acc.1 + b));
    let mut below = (0u32, 0u32);
    for &(a, b) in &counts {
        below = (below.0 + a, below.1 + b);
        let above = (total.0 - below.0 + a, total.1 - below.1 + b);
        for (ta, tb) in [below, above] {
            if let Some((ratio, margin)) = compare(ta, tb) {
                max_tail_ratio = max_tail_ratio.max(ratio);
                worst_margin = worst_margin.max(margin);
                tail_events_compared += 1;
            }
        }
    }

    DpTestResult {
        max_ratio,
        bound,
        buckets_compared,
        max_tail_ratio,
        tail_events_compared,
        trials,
        worst_margin,
        passes: buckets_compared > 0 && worst_margin <= 1.0,
    }
}

/// Default number of standard errors of log-odds tolerance in
/// [`test_strategy_update_pattern`] (per-bucket false-failure probability
/// ≈ 2Φ(−4) ≈ 6·10⁻⁵, comfortably small across tens of buckets).
pub const DEFAULT_ODDS_Z: f64 = 4.0;

/// Convenience: tests a strategy constructor against neighboring streams by
/// measuring the volume of the first update at or after the differing time.
pub fn test_strategy_update_pattern(
    epsilon: Epsilon,
    base: &ArrivalStream,
    diff_time: usize,
    initial_size: u64,
    trials: u32,
    seed: u64,
    mut make_strategy: impl FnMut() -> Box<dyn SyncStrategy>,
) -> DpTestResult {
    let (stream_a, stream_b) = neighboring_streams(base, diff_time);
    let statistic = PatternStatistic::VolumeAfter(diff_time as u64);
    // Keep the comparison floor low: the per-bucket tolerance already widens
    // automatically for small buckets (σ̂ grows as counts shrink), and a
    // higher floor would only exclude mid-mass buckets from the violation
    // check — shrinking sensitivity exactly where more trials should add it.
    empirical_odds_ratio(
        epsilon,
        trials,
        20,
        DEFAULT_ODDS_Z,
        seed,
        move |use_neighbor, rng| {
            let stream = if use_neighbor { &stream_b } else { &stream_a };
            let mut strategy = make_strategy();
            let pattern = simulate_update_pattern(strategy.as_mut(), initial_size, stream, rng);
            statistic.evaluate(&pattern)
        },
    )
}

/// The paper-default cache flush used by the DP strategies in privacy tests
/// (the flush is data-independent, so including it must not affect the test).
pub fn default_flush() -> CacheFlush {
    CacheFlush::paper_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{AboveNoisyThresholdStrategy, DpTimerStrategy, SynchronizeUponReceipt};
    use rand::RngCore;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new_unchecked(v)
    }

    fn bursty_stream(len: usize) -> ArrivalStream {
        (1..=len).map(|t| u64::from(t % 3 == 0)).collect()
    }

    #[test]
    fn neighboring_streams_differ_in_exactly_one_position() {
        let base = bursty_stream(50);
        let (a, b) = neighboring_streams(&base, 10);
        assert_eq!(a.len(), b.len());
        let diffs: Vec<usize> = (0..a.len()).filter(|&i| a[i] != b[i]).collect();
        assert_eq!(diffs, vec![9]);
        assert_eq!(b[9], a[9] + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighboring_streams_validate_diff_time() {
        let _ = neighboring_streams(&bursty_stream(5), 9);
    }

    #[test]
    fn statistics_evaluate_patterns() {
        let mut p = UpdatePattern::new();
        p.record(0, 10);
        p.record(30, 4);
        p.record(60, 6);
        assert_eq!(PatternStatistic::TotalVolume.evaluate(&p), 20);
        assert_eq!(PatternStatistic::UpdateCount.evaluate(&p), 3);
        assert_eq!(PatternStatistic::VolumeAfter(30).evaluate(&p), 4);
        assert_eq!(PatternStatistic::VolumeAfter(31).evaluate(&p), 6);
        assert_eq!(PatternStatistic::VolumeAfter(100).evaluate(&p), 0);
    }

    #[test]
    fn simulated_pattern_matches_strategy_behaviour() {
        let mut rng = DpRng::seed_from_u64(1);
        let mut strategy = SynchronizeUponReceipt::new();
        let stream = bursty_stream(30);
        let pattern = simulate_update_pattern(&mut strategy, 4, &stream, &mut rng);
        // SUR: setup of 4 records, then one update per arrival tick.
        assert_eq!(pattern.events()[0].volume, 4);
        let arrival_ticks = stream.iter().filter(|&&a| a > 0).count();
        assert_eq!(pattern.len(), 1 + arrival_ticks);
    }

    #[test]
    fn dp_timer_update_pattern_passes_the_odds_ratio_test() {
        let epsilon = eps(1.0);
        let result =
            test_strategy_update_pattern(epsilon, &bursty_stream(60), 45, 5, 4_000, 7, || {
                Box::new(DpTimerStrategy::with_flush(epsilon, 30, None))
            });
        assert!(result.buckets_compared > 0, "no comparable buckets");
        assert!(
            result.passes,
            "DP-Timer failed the empirical test: max ratio {} vs bound {} (margin {})",
            result.max_ratio, result.bound, result.worst_margin
        );
        assert!(result.headroom() >= 1.0);
    }

    #[test]
    fn dp_ant_update_pattern_passes_the_odds_ratio_test() {
        let epsilon = eps(1.0);
        let result =
            test_strategy_update_pattern(epsilon, &bursty_stream(60), 45, 5, 4_000, 11, || {
                Box::new(AboveNoisyThresholdStrategy::with_flush(epsilon, 10, None))
            });
        assert!(result.buckets_compared > 0, "no comparable buckets");
        assert!(
            result.passes,
            "DP-ANT failed the empirical test: max ratio {} vs bound {}",
            result.max_ratio, result.bound
        );
    }

    #[test]
    fn sur_update_pattern_fails_the_odds_ratio_test() {
        // SUR's update volume is exactly the arrival count, so the statistic
        // distributions on neighboring streams are disjoint at the differing
        // tick — the tester must flag it (no privacy).
        let epsilon = eps(1.0);
        let (stream_a, stream_b) = neighboring_streams(&bursty_stream(60), 45);
        let statistic = PatternStatistic::TotalVolume;
        let result =
            empirical_odds_ratio(epsilon, 500, 20, DEFAULT_ODDS_Z, 13, |use_neighbor, rng| {
                let stream = if use_neighbor { &stream_b } else { &stream_a };
                let mut s = SynchronizeUponReceipt::new();
                let pattern = simulate_update_pattern(&mut s, 5, stream, rng);
                statistic.evaluate(&pattern)
            });
        // Deterministic outputs on different inputs share no buckets at all,
        // so either nothing is comparable or the ratio blows up; both mean
        // the mechanism offers no ε-DP guarantee.
        assert!(!result.passes);
    }

    #[test]
    fn tail_events_catch_one_sided_outlier_mass() {
        // A broken mechanism that behaves like a noisy count on one stream
        // but dumps a quarter of its neighbor-stream mass on a huge outlier
        // value.  Every outlier *point* bucket is skipped (the other side
        // holds zero trials there), so point buckets alone would pass — the
        // upper-tail events must flag the violation.
        let epsilon = eps(1.0);
        let result = empirical_odds_ratio(epsilon, 4_000, 20, DEFAULT_ODDS_Z, 23, {
            |use_neighbor, rng| {
                let base = crate::perturb::perturbed_count(50, epsilon, rng).fetch_size();
                if use_neighbor && rng.next_u64() % 4 == 0 {
                    10_000
                } else {
                    base
                }
            }
        });
        assert!(result.buckets_compared > 0);
        assert!(
            result.max_ratio < result.bound,
            "the point buckets alone should look clean (ratio {})",
            result.max_ratio
        );
        assert!(
            result.max_tail_ratio > result.bound,
            "the tails must expose the outlier mass (tail ratio {})",
            result.max_tail_ratio
        );
        assert!(!result.passes, "the one-sided violation must fail the test");
    }

    #[test]
    fn flush_does_not_change_the_privacy_verdict() {
        let epsilon = eps(1.0);
        let result =
            test_strategy_update_pattern(epsilon, &bursty_stream(60), 45, 5, 3_000, 17, || {
                Box::new(DpTimerStrategy::with_flush(
                    epsilon,
                    30,
                    Some(CacheFlush::new(50, 3)),
                ))
            });
        assert!(result.passes, "max ratio {}", result.max_ratio);
        assert_eq!(default_flush(), CacheFlush::paper_default());
    }
}
