//! Accuracy / coverage accounting shared by all experiments, and the §3
//! profile loop that feeds it.

use std::fmt;

use crate::{ConfidenceTable, ValuePredictor};

/// Accuracy and coverage accounting for one predictor over one value stream.
///
/// The paper reports two families of numbers:
///
/// * **ungated** accuracy — correct predictions over all value-producing
///   instructions (used in the §3 profile studies, Figures 8 and 10);
/// * **confidence-gated** accuracy and **coverage** — accuracy over
///   *confident* predictions only, and the fraction of value-producing
///   instructions that received a confident prediction (Figures 13, 16, 18).
///
/// `PredictorStats` tracks everything needed for both.
///
/// # Examples
///
/// ```
/// use predictors::PredictorStats;
///
/// let mut s = PredictorStats::default();
/// s.record(Some(5), true, 5);  // confident, correct
/// s.record(Some(6), false, 7); // not confident, wrong
/// s.record(None, false, 1);    // no prediction at all
/// assert_eq!(s.total(), 3);
/// assert_eq!(s.coverage(), 1.0 / 3.0);
/// assert_eq!(s.gated_accuracy(), 1.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PredictorStats {
    total: u64,
    predicted: u64,
    correct: u64,
    confident: u64,
    confident_correct: u64,
}

impl PredictorStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value-producing instruction.
    ///
    /// `predicted` is the predictor's output (if any), `confident` whether
    /// the confidence mechanism endorsed it, and `actual` the value the
    /// instruction really produced.
    pub fn record(&mut self, predicted: Option<u64>, confident: bool, actual: u64) {
        self.total += 1;
        if let Some(p) = predicted {
            self.predicted += 1;
            let ok = p == actual;
            if ok {
                self.correct += 1;
            }
            if confident {
                self.confident += 1;
                if ok {
                    self.confident_correct += 1;
                }
            }
        }
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &PredictorStats) {
        self.total += other.total;
        self.predicted += other.predicted;
        self.correct += other.correct;
        self.confident += other.confident;
        self.confident_correct += other.confident_correct;
    }

    /// Total value-producing instructions observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Instructions for which the predictor produced *any* value.
    pub fn predicted(&self) -> u64 {
        self.predicted
    }

    /// Correct predictions regardless of confidence.
    pub fn correct(&self) -> u64 {
        self.correct
    }

    /// Confident predictions made.
    pub fn confident(&self) -> u64 {
        self.confident
    }

    /// Confident predictions that were correct.
    pub fn confident_correct(&self) -> u64 {
        self.confident_correct
    }

    /// Ungated accuracy: `correct / total` (the §3 profile metric, where
    /// every value-producing instruction is predicted).
    pub fn accuracy(&self) -> f64 {
        ratio(self.correct, self.total)
    }

    /// Accuracy over the predictions actually made: `correct / predicted`.
    pub fn accuracy_of_predicted(&self) -> f64 {
        ratio(self.correct, self.predicted)
    }

    /// Confidence-gated accuracy: `confident_correct / confident`.
    pub fn gated_accuracy(&self) -> f64 {
        ratio(self.confident_correct, self.confident)
    }

    /// Coverage: `confident / total` — the fraction of value-producing
    /// instructions that received a confident prediction.
    pub fn coverage(&self) -> f64 {
        ratio(self.confident, self.total)
    }

    /// All counters and derived rates as a JSON object, for the harness's
    /// machine-readable run reports.
    pub fn to_json(&self) -> obs::JsonValue {
        obs::JsonValue::object()
            .with("total", self.total)
            .with("predicted", self.predicted)
            .with("correct", self.correct)
            .with("confident", self.confident)
            .with("confident_correct", self.confident_correct)
            .with("accuracy", self.accuracy())
            .with("gated_accuracy", self.gated_accuracy())
            .with("coverage", self.coverage())
    }

    /// Publishes the counters into a metrics [`Registry`](obs::Registry)
    /// under `prefix` (e.g. `vp.total`, `vp.confident_correct`).
    pub fn publish(&self, registry: &mut obs::Registry, prefix: &str) {
        for (name, value) in [
            ("total", self.total),
            ("predicted", self.predicted),
            ("correct", self.correct),
            ("confident", self.confident),
            ("confident_correct", self.confident_correct),
        ] {
            let id = registry.counter(&format!("{prefix}.{name}"));
            registry.reset_counter(id);
            registry.add(id, value);
        }
    }
}

/// The §3 profile loop: every value producer is predicted, scored and
/// then used to update the predictor at once, in program order.
///
/// The loop is push-style — the caller hands it one producer at a time —
/// so the one-shot harness run, the sweep's gated cells and a streamed
/// serve session all drive the same code. It owns the warmup counter,
/// the producer limit (`warmup + measure`, saturating) and the
/// statistics; the predictor and the optional confidence table stay with
/// the caller.
///
/// With a [`ConfidenceTable`] a prediction counts as *confident* when
/// the table endorses it, and the table trains on every resolved
/// prediction. Without one the run is ungated and every prediction
/// counts as confident, so [`PredictorStats::coverage`] is the share of
/// producers that got any prediction in both modes.
///
/// # Examples
///
/// ```
/// use predictors::{Capacity, ProfileLoop, StridePredictor};
///
/// let mut p = StridePredictor::new(Capacity::Unbounded);
/// let mut run = ProfileLoop::new(3, 4);
/// for v in (0u64..10).map(|i| 100 + 4 * i) {
///     run.step(&mut p, None, 0x400, v);
/// }
/// assert_eq!(run.producers(), 7); // the limit: 3 warmup + 4 measured
/// assert_eq!(run.stats().total(), 4);
/// assert_eq!(run.stats().accuracy(), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ProfileLoop {
    warmup: u64,
    limit: u64,
    producers: u64,
    stats: PredictorStats,
}

/// What [`ProfileLoop::step`] did with one producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStep {
    /// The predictor's output, gated or not.
    pub predicted: Option<u64>,
    /// Whether the producer was recorded (it lies past the warmup).
    pub past_warmup: bool,
}

impl ProfileLoop {
    /// A loop that skips `warmup` producers, then measures `measure`.
    pub fn new(warmup: u64, measure: u64) -> Self {
        ProfileLoop {
            warmup,
            limit: warmup.saturating_add(measure),
            producers: 0,
            stats: PredictorStats::new(),
        }
    }

    /// Runs one value producer through predict → gate → record → train
    /// → update. Returns `None`, touching nothing, once the limit is
    /// reached.
    #[inline]
    pub fn step<P: ValuePredictor + ?Sized>(
        &mut self,
        predictor: &mut P,
        mut conf: Option<&mut ConfidenceTable>,
        pc: u64,
        value: u64,
    ) -> Option<ProfileStep> {
        if self.producers >= self.limit {
            return None;
        }
        let predicted = predictor.predict(pc);
        let confident =
            predicted.is_some() && conf.as_deref_mut().is_none_or(|c| c.is_confident(pc));
        let past_warmup = self.producers >= self.warmup;
        if past_warmup {
            self.stats.record(predicted, confident, value);
        }
        if let (Some(p), Some(c)) = (predicted, conf) {
            c.train(pc, p == value);
        }
        predictor.update(pc, value);
        self.producers += 1;
        Some(ProfileStep {
            predicted,
            past_warmup,
        })
    }

    /// Producers consumed so far, warmup included.
    pub fn producers(&self) -> u64 {
        self.producers
    }

    /// The producer limit: `warmup + measure`, saturating at `u64::MAX`.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Statistics over the measured producers.
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for PredictorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc {:5.1}% | gated acc {:5.1}% cov {:5.1}% | n={}",
            100.0 * self.accuracy(),
            100.0 * self.gated_accuracy(),
            100.0 * self.coverage(),
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = PredictorStats::new();
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.gated_accuracy(), 0.0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.total(), 0);
    }

    #[test]
    fn counters_track_each_case() {
        let mut s = PredictorStats::new();
        s.record(Some(1), true, 1); // confident correct
        s.record(Some(2), true, 3); // confident wrong
        s.record(Some(4), false, 4); // unconfident correct
        s.record(None, false, 9); // no prediction
        assert_eq!(s.total(), 4);
        assert_eq!(s.predicted(), 3);
        assert_eq!(s.correct(), 2);
        assert_eq!(s.confident(), 2);
        assert_eq!(s.confident_correct(), 1);
        assert_eq!(s.accuracy(), 0.5);
        assert_eq!(s.accuracy_of_predicted(), 2.0 / 3.0);
        assert_eq!(s.gated_accuracy(), 0.5);
        assert_eq!(s.coverage(), 0.5);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = PredictorStats::new();
        a.record(Some(1), true, 1);
        let mut b = PredictorStats::new();
        b.record(None, false, 2);
        b.record(Some(3), true, 0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.confident(), 2);
        assert_eq!(a.confident_correct(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let s = PredictorStats::new();
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn json_export_carries_counters_and_rates() {
        let mut s = PredictorStats::new();
        s.record(Some(1), true, 1);
        s.record(None, false, 2);
        let j = s.to_json();
        assert_eq!(j.path("total").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(j.path("coverage").and_then(|v| v.as_f64()), Some(0.5));
        // And the export survives a parse round trip.
        let parsed = obs::JsonValue::parse(&j.to_json()).unwrap();
        assert_eq!(
            parsed.path("gated_accuracy").and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }

    /// Values with a repeating stride break every fourth producer, so a
    /// stride predictor is right often but not always.
    fn bumpy(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| 10 * i + if i % 4 == 0 { 3 } else { 0 })
    }

    #[test]
    fn profile_loop_ungated_counts_every_prediction_as_confident() {
        let mut p = crate::StridePredictor::new(crate::Capacity::Unbounded);
        let mut run = ProfileLoop::new(4, 40);
        for v in bumpy(100) {
            run.step(&mut p, None, 0x40, v);
        }
        let s = run.stats();
        assert_eq!(s.total(), 40);
        assert!(s.correct() > 0 && s.correct() < s.predicted());
        assert_eq!(s.confident(), s.predicted());
        assert_eq!(s.confident_correct(), s.correct());
        assert_eq!(s.coverage(), s.predicted() as f64 / s.total() as f64);
    }

    #[test]
    fn profile_loop_gates_and_trains_a_confidence_table() {
        let cap = crate::Capacity::Unbounded;
        let mut p = crate::StridePredictor::new(cap);
        let mut conf = ConfidenceTable::with_defaults(cap);
        let mut run = ProfileLoop::new(0, u64::MAX);
        // The reference: the same rule written out by hand.
        let mut q = crate::StridePredictor::new(cap);
        let mut qconf = ConfidenceTable::with_defaults(cap);
        let mut want = PredictorStats::new();
        for v in bumpy(200) {
            run.step(&mut p, Some(&mut conf), 0x40, v);
            let predicted = q.predict(0x40);
            let confident = predicted.is_some() && qconf.is_confident(0x40);
            want.record(predicted, confident, v);
            if let Some(x) = predicted {
                qconf.train(0x40, x == v);
            }
            q.update(0x40, v);
        }
        assert_eq!(run.stats(), &want);
        assert!(want.confident() < want.predicted());
        assert_eq!(conf.counter(0x40), qconf.counter(0x40));
    }

    #[test]
    fn profile_loop_stops_at_a_saturated_limit() {
        let run = ProfileLoop::new(u64::MAX, 1_000);
        assert_eq!(run.limit(), u64::MAX);

        let mut p = crate::LastValuePredictor::new(crate::Capacity::Unbounded);
        let mut run = ProfileLoop::new(1, 1);
        let steps: Vec<_> = (0..3).map(|v| run.step(&mut p, None, 0x40, v)).collect();
        assert_eq!(
            steps,
            [
                Some(ProfileStep {
                    predicted: None,
                    past_warmup: false
                }),
                Some(ProfileStep {
                    predicted: Some(0),
                    past_warmup: true
                }),
                None,
            ]
        );
        // Past the limit the predictor is not trained either.
        assert_eq!(p.predict(0x40), Some(1));
        assert_eq!(run.producers(), 2);
        assert_eq!(run.stats().total(), 1);
    }

    #[test]
    fn publish_overwrites_rather_than_accumulates() {
        let mut s = PredictorStats::new();
        s.record(Some(1), true, 1);
        let mut reg = obs::Registry::new();
        s.publish(&mut reg, "vp");
        s.publish(&mut reg, "vp");
        assert_eq!(reg.counter_by_name("vp.total"), Some(1));
        assert_eq!(reg.counter_by_name("vp.confident_correct"), Some(1));
    }
}
