//! Simulation statistics.

use obs::JsonValue;
use predictors::PredictorStats;

/// Histogram of value delays: for each value-producing instruction, the
/// number of values produced (written back) between its dispatch and its
/// own write-back — the paper's Figure 12 metric.
///
/// Backed by the telemetry crate's mergeable [`obs::Histogram`], so delay
/// distributions from separate runs can be merged and run reports get
/// p50/p90/p99 for free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelayHistogram {
    inner: obs::Histogram,
}

impl DelayHistogram {
    /// Creates a histogram with buckets `0..=max` (larger delays clamp).
    pub fn new(max: usize) -> Self {
        DelayHistogram {
            inner: obs::Histogram::new(max),
        }
    }

    /// Records one observed delay.
    pub fn record(&mut self, delay: u64) {
        self.inner.record(delay);
    }

    /// Merges another histogram into this one (bucket layouts must match).
    pub fn merge(&mut self, other: &DelayHistogram) {
        self.inner.merge(&other.inner);
    }

    /// Fraction of observations in bucket `d`.
    pub fn fraction(&self, d: usize) -> f64 {
        self.inner.fraction(d)
    }

    /// Mean observed delay.
    pub fn mean(&self) -> f64 {
        self.inner.mean()
    }

    /// Median delay bucket.
    pub fn p50(&self) -> u64 {
        self.inner.p50()
    }

    /// 90th-percentile delay bucket.
    pub fn p90(&self) -> u64 {
        self.inner.p90()
    }

    /// 99th-percentile delay bucket.
    pub fn p99(&self) -> u64 {
        self.inner.p99()
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.inner.total()
    }

    /// Bucket count (max delay + 1).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Summary plus per-bucket fractions as a JSON object.
    pub fn to_json(&self) -> JsonValue {
        self.inner.to_json_with_buckets()
    }
}

impl From<obs::Histogram> for DelayHistogram {
    fn from(inner: obs::Histogram) -> Self {
        DelayHistogram { inner }
    }
}

/// End-of-run statistics of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// Cycles simulated (measurement phase).
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Value-producing instructions retired.
    pub value_producing: u64,
    /// Loads retired.
    pub loads: u64,
    /// D-cache miss rate over the measurement phase.
    pub dcache_miss_rate: f64,
    /// I-cache miss rate.
    pub icache_miss_rate: f64,
    /// Branch misprediction rate.
    pub branch_mispredict_rate: f64,
    /// Value-prediction accuracy/coverage (all value producers).
    pub vp: PredictorStats,
    /// Value-prediction statistics restricted to loads that missed the
    /// D-cache (the §7 "missing loads" analysis).
    pub vp_missing_loads: PredictorStats,
    /// Value-delay histogram (Figure 12).
    pub delays: DelayHistogram,
    /// Instructions that were re-executed due to value misprediction.
    pub reissues: u64,
    /// Prefetches issued by the attached [`Prefetcher`](crate::Prefetcher).
    pub prefetches_issued: u64,
    /// Prefetches that a later demand miss found in flight or completed.
    pub prefetches_useful: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Every statistic — counters, rates, predictor stats, and the delay
    /// histogram with percentiles — as a JSON object for run reports.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .with("cycles", self.cycles)
            .with("retired", self.retired)
            .with("ipc", self.ipc())
            .with("value_producing", self.value_producing)
            .with("loads", self.loads)
            .with("dcache_miss_rate", self.dcache_miss_rate)
            .with("icache_miss_rate", self.icache_miss_rate)
            .with("branch_mispredict_rate", self.branch_mispredict_rate)
            .with("reissues", self.reissues)
            .with("prefetches_issued", self.prefetches_issued)
            .with("prefetches_useful", self.prefetches_useful)
            .with("vp", self.vp.to_json())
            .with("vp_missing_loads", self.vp_missing_loads.to_json())
            .with("delays", self.delays.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_clamps_and_averages() {
        let mut h = DelayHistogram::new(4);
        h.record(0);
        h.record(2);
        h.record(100); // clamps into bucket 4
        assert_eq!(h.total(), 3);
        assert_eq!(h.fraction(2), 1.0 / 3.0);
        assert_eq!(h.fraction(4), 1.0 / 3.0);
        assert!((h.mean() - 34.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = DelayHistogram::new(4);
        assert_eq!(h.fraction(0), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn percentiles_walk_the_distribution() {
        let mut h = DelayHistogram::new(32);
        // 60% at delay 2, 35% at delay 10, 5% at delay 25.
        for _ in 0..60 {
            h.record(2);
        }
        for _ in 0..35 {
            h.record(10);
        }
        for _ in 0..5 {
            h.record(25);
        }
        assert_eq!(h.p50(), 2);
        assert_eq!(h.p90(), 10);
        assert_eq!(h.p99(), 25);
    }

    #[test]
    fn percentiles_report_top_bucket_for_clamped_tail() {
        let mut h = DelayHistogram::new(8);
        for _ in 0..100 {
            h.record(500); // all observations clamp into bucket 8
        }
        assert_eq!(h.p50(), 8);
        assert_eq!(h.p99(), 8);
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = DelayHistogram::new(16);
        let mut b = DelayHistogram::new(16);
        for _ in 0..10 {
            a.record(1);
        }
        for _ in 0..10 {
            b.record(9);
        }
        a.merge(&b);
        assert_eq!(a.total(), 20);
        assert_eq!(a.fraction(1), 0.5);
        assert_eq!(a.fraction(9), 0.5);
        assert_eq!(a.p50(), 1);
        assert_eq!(a.p90(), 9);
    }

    fn sample_stats() -> SimStats {
        SimStats {
            cycles: 100,
            retired: 150,
            value_producing: 90,
            loads: 30,
            dcache_miss_rate: 0.1,
            icache_miss_rate: 0.0,
            branch_mispredict_rate: 0.05,
            vp: PredictorStats::new(),
            vp_missing_loads: PredictorStats::new(),
            delays: DelayHistogram::new(8),
            reissues: 0,
            prefetches_issued: 0,
            prefetches_useful: 0,
        }
    }

    #[test]
    fn ipc_computes() {
        assert!((sample_stats().ipc() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn stats_serialize_to_json() {
        let mut s = sample_stats();
        s.delays.record(3);
        let j = s.to_json();
        assert_eq!(j.path("cycles").and_then(|v| v.as_f64()), Some(100.0));
        assert_eq!(j.path("ipc").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(j.path("delays.p50").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(j.path("vp.total").and_then(|v| v.as_f64()), Some(0.0));
        // Round-trips through the parser.
        let parsed = JsonValue::parse(&j.to_json()).unwrap();
        assert_eq!(
            parsed.path("delays.total").and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }
}
