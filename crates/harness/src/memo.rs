//! The run memo: each distinct simulation runs once per invocation.
//!
//! Experiments overlap heavily. Table 2's no-VP baseline is also the
//! denominator of Figure 19, the limit study and the confidence and depth
//! ablations; Figures 8, 9 and 10 and the queue ablation share the
//! unbounded order-8 gDiff profile; Figures 18a and 18b are the same runs
//! rendered twice. A [`RunMemo`] is bound to one [`TraceSource`] and keys
//! every run by everything that determines its result — benchmark,
//! [`RunParams`], [`PipelineConfig`], [`EngineSpec`] / `ProfileSpec` and
//! prefetcher — so the first cell to ask for a run computes it and every
//! later or concurrent asker gets a copy of the same value.
//!
//! A run's result is a pure function of its key, so sharing changes no
//! output byte at any worker count. Concurrent askers of one key block on
//! its [`OnceLock`] while the first computes; no computation asks the memo
//! for another run, so the wait cannot cycle.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use gdiff::{GDiffPredictor, HgvqPredictor};
use obs::{JsonValue, Registry};
use pipeline::{
    GDiffPrefetcher, HgvqEngine, LocalEngine, NextLinePrefetcher, NoVp, OracleEngine,
    PipelineConfig, Prefetcher, SgvqEngine, SimStats, StridePrefetcher, VpEngine,
};
use predictors::{
    Capacity, ConfidenceConfig, DfcmPredictor, LastValuePredictor, MarkovConfig, PredictorStats,
    StridePredictor, TableGeometry,
};
use workloads::{Benchmark, TraceSource};

use crate::addr::{fig18_run, Fig18Row};
use crate::pipe::run_pipeline_configured_on;
use crate::profile::run_profile_on;
use crate::RunParams;

/// Entries of the pipeline predictors' tables (the paper's 8K point).
const ENTRIES_8K: Capacity = Capacity::Entries(8192);

/// A value-prediction engine of the pipeline experiments, by name. This
/// is the only way an experiment builds an engine, so two cells asking
/// for the same engine share one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineSpec {
    /// No value prediction: the baseline.
    NoVp,
    /// Local stride, 8K entries, 3-bit confidence.
    Stride8k,
    /// Local context (DFCM), 8K-entry level 1.
    Dfcm8k,
    /// gDiff on the speculative GVQ, order 32, 8K tables.
    Sgvq,
    /// gDiff on the hybrid GVQ with the local-stride filler, order 32,
    /// 8K tables, confidence counters gated at `threshold`.
    Hgvq {
        /// Confidence threshold (0 = speculate on every prediction).
        threshold: u8,
    },
    /// The hybrid GVQ with a last-value filler (the filler ablation).
    HgvqLastValue,
    /// Perfect value prediction (the limit study).
    Oracle,
}

impl EngineSpec {
    /// The paper's HGVQ design: default confidence threshold.
    pub fn paper_hgvq() -> Self {
        EngineSpec::Hgvq {
            threshold: ConfidenceConfig::default().threshold,
        }
    }

    /// A fresh engine of this kind.
    pub fn build(self) -> Box<dyn VpEngine> {
        match self {
            EngineSpec::NoVp => Box::new(NoVp),
            EngineSpec::Stride8k => Box::new(LocalEngine::stride_8k()),
            EngineSpec::Dfcm8k => Box::new(LocalEngine::dfcm_8k()),
            EngineSpec::Sgvq => Box::new(SgvqEngine::paper_default()),
            EngineSpec::Hgvq { threshold } => {
                let config = ConfidenceConfig {
                    threshold,
                    ..ConfidenceConfig::default()
                };
                Box::new(HgvqEngine::from_predictor(HgvqPredictor::with_config(
                    ENTRIES_8K,
                    32,
                    ENTRIES_8K,
                    config,
                    StridePredictor::new(ENTRIES_8K),
                )))
            }
            EngineSpec::HgvqLastValue => Box::new(HgvqEngine::from_predictor(HgvqPredictor::new(
                ENTRIES_8K,
                32,
                ENTRIES_8K,
                LastValuePredictor::new(ENTRIES_8K),
            ))),
            EngineSpec::Oracle => Box::new(OracleEngine),
        }
    }
}

/// A prefetcher of the prefetching extension study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PrefetchSpec {
    /// Next-line prefetching.
    NextLine,
    /// Local-stride-directed prefetching.
    Stride,
    /// gDiff-directed prefetching.
    GDiff,
}

impl PrefetchSpec {
    /// A fresh prefetcher for a machine configured as `config`.
    fn build(self, config: &PipelineConfig) -> Box<dyn Prefetcher> {
        match self {
            PrefetchSpec::NextLine => Box::new(NextLinePrefetcher::new(config.dcache.line_bytes)),
            PrefetchSpec::Stride => Box::new(StridePrefetcher::new()),
            PrefetchSpec::GDiff => Box::new(GDiffPrefetcher::new()),
        }
    }
}

/// A profile-mode (§3) predictor, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ProfileSpec {
    /// Local stride, unlimited table.
    Stride,
    /// Local DFCM, unlimited level 1, 64K level 2.
    Dfcm,
    /// gDiff.
    GDiff {
        /// Table entries (`None` = unlimited).
        entries: Option<usize>,
        /// Queue order.
        order: usize,
        /// Value delay *T*.
        delay: usize,
    },
}

impl ProfileSpec {
    /// gDiff with an unlimited table and no value delay.
    pub(crate) fn gdiff(order: usize) -> Self {
        ProfileSpec::GDiff {
            entries: None,
            order,
            delay: 0,
        }
    }

    /// Runs this predictor over `bench` in profile mode.
    fn run(self, source: &dyn TraceSource, bench: Benchmark, params: RunParams) -> ProfileRun {
        let local = |stats| ProfileRun {
            stats,
            conflict_rate: 0.0,
            geometry: None,
        };
        match self {
            ProfileSpec::Stride => local(run_profile_on(
                source,
                bench,
                &mut StridePredictor::new(Capacity::Unbounded),
                params,
            )),
            ProfileSpec::Dfcm => local(run_profile_on(
                source,
                bench,
                &mut DfcmPredictor::new(Capacity::Unbounded, 4, 16),
                params,
            )),
            ProfileSpec::GDiff {
                entries,
                order,
                delay,
            } => {
                let cap = entries.map_or(Capacity::Unbounded, Capacity::Entries);
                let mut p = GDiffPredictor::with_delay(cap, order, delay);
                let stats = run_profile_on(source, bench, &mut p, params);
                ProfileRun {
                    stats,
                    conflict_rate: p.conflict_rate(),
                    geometry: Some(p.core().geometry()),
                }
            }
        }
    }
}

/// What a profile run leaves behind: the accuracy statistics, plus the
/// gDiff table's state that Figure 9 reads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProfileRun {
    /// Ungated accuracy statistics.
    pub(crate) stats: PredictorStats,
    /// Conflict (aliasing) rate of the gDiff table (0 for local
    /// predictors).
    pub(crate) conflict_rate: f64,
    /// Shape of the gDiff table after the run (`None` for local
    /// predictors).
    pub(crate) geometry: Option<TableGeometry>,
}

/// Requested and computed run totals of one memo. Both are independent of
/// worker count: `requested` counts asks, `computed` counts distinct keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Pipeline runs asked for (Figure 18's observer runs included).
    pub pipeline_requested: u64,
    /// Pipeline runs simulated.
    pub pipeline_computed: u64,
    /// Profile runs asked for.
    pub profile_requested: u64,
    /// Profile runs computed.
    pub profile_computed: u64,
}

impl RunCounts {
    /// The `runs` entry of the report's `scheduler` section.
    pub fn to_json(&self) -> JsonValue {
        let pair = |pipeline: u64, profile: u64| {
            JsonValue::object()
                .with("pipeline", pipeline)
                .with("profile", profile)
        };
        JsonValue::object()
            .with(
                "requested",
                pair(self.pipeline_requested, self.profile_requested),
            )
            .with(
                "computed",
                pair(self.pipeline_computed, self.profile_computed),
            )
    }

    /// Adds the totals to `reg` as `runs.{requested,computed}.{pipeline,profile}`
    /// counters.
    pub fn publish(&self, reg: &mut Registry) {
        for (name, v) in [
            ("runs.requested.pipeline", self.pipeline_requested),
            ("runs.computed.pipeline", self.pipeline_computed),
            ("runs.requested.profile", self.profile_requested),
            ("runs.computed.profile", self.profile_computed),
        ] {
            let c = reg.counter(name);
            reg.add(c, v);
        }
    }
}

/// One keyed family of memoized results.
struct Slots<K, V> {
    map: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    requested: AtomicU64,
    computed: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Slots<K, V> {
    fn new() -> Self {
        Slots {
            map: Mutex::new(HashMap::new()),
            requested: AtomicU64::new(0),
            computed: AtomicU64::new(0),
        }
    }

    /// The value for `key`, computing it with `compute` if nobody has.
    fn get(&self, key: K, compute: impl FnOnce() -> V) -> V {
        self.requested.fetch_add(1, Ordering::Relaxed);
        // Clone the slot out so the map lock is not held while computing.
        let slot = Arc::clone(
            self.map
                .lock()
                .expect("memo map lock: no code panics while holding it")
                .entry(key)
                .or_default(),
        );
        slot.get_or_init(|| {
            self.computed.fetch_add(1, Ordering::Relaxed);
            compute()
        })
        .clone()
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.requested.load(Ordering::Relaxed),
            self.computed.load(Ordering::Relaxed),
        )
    }
}

type PipelineKey = (
    Benchmark,
    RunParams,
    PipelineConfig,
    EngineSpec,
    Option<PrefetchSpec>,
);

/// Memoized runs over one [`TraceSource`]; see the [module docs](self).
pub struct RunMemo<'a> {
    source: &'a dyn TraceSource,
    pipeline: Slots<PipelineKey, SimStats>,
    profile: Slots<(Benchmark, RunParams, ProfileSpec), ProfileRun>,
    fig18: Slots<(Benchmark, RunParams, MarkovConfig), Fig18Row>,
}

impl std::fmt::Debug for RunMemo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunMemo")
            .field("source", &self.source.describe())
            .field("counts", &self.counts())
            .finish()
    }
}

impl<'a> RunMemo<'a> {
    /// An empty memo over `source`.
    pub fn new(source: &'a dyn TraceSource) -> Self {
        RunMemo {
            source,
            pipeline: Slots::new(),
            profile: Slots::new(),
            fig18: Slots::new(),
        }
    }

    /// The instruction origin every run reads.
    pub(crate) fn source(&self) -> &'a dyn TraceSource {
        self.source
    }

    /// `bench` through the Table 1 pipeline with `engine`.
    pub(crate) fn pipeline(
        &self,
        bench: Benchmark,
        engine: EngineSpec,
        params: RunParams,
    ) -> SimStats {
        self.pipeline_configured(bench, engine, None, PipelineConfig::r10k(), params)
    }

    /// `bench` through a custom machine with an optional prefetcher.
    pub(crate) fn pipeline_configured(
        &self,
        bench: Benchmark,
        engine: EngineSpec,
        prefetch: Option<PrefetchSpec>,
        config: PipelineConfig,
        params: RunParams,
    ) -> SimStats {
        let key = (bench, params, config, engine, prefetch);
        self.pipeline.get(key, || {
            let prefetcher = prefetch.map(|p| p.build(&config));
            run_pipeline_configured_on(
                self.source,
                bench,
                engine.build(),
                prefetcher,
                config,
                params,
            )
        })
    }

    /// `bench`'s profile-mode run of `spec`.
    pub(crate) fn profile(
        &self,
        bench: Benchmark,
        spec: ProfileSpec,
        params: RunParams,
    ) -> ProfileRun {
        self.profile.get((bench, params, spec), || {
            spec.run(self.source, bench, params)
        })
    }

    /// `bench`'s Figure 18 row with a `markov`-shaped Markov table.
    pub(crate) fn fig18(
        &self,
        bench: Benchmark,
        params: RunParams,
        markov: MarkovConfig,
    ) -> Fig18Row {
        self.fig18.get((bench, params, markov), || {
            fig18_run(self.source, bench, params, markov)
        })
    }

    /// Requested and computed totals so far.
    pub fn counts(&self) -> RunCounts {
        let (pr, pc) = self.pipeline.counts();
        let (fr, fc) = self.fig18.counts();
        let (qr, qc) = self.profile.counts();
        RunCounts {
            pipeline_requested: pr + fr,
            pipeline_computed: pc + fc,
            profile_requested: qr,
            profile_computed: qc,
        }
    }
}

/// Runs `cell` on every benchmark over a fresh memo: the body of the
/// per-benchmark `*_on` functions.
pub(crate) fn per_bench_on<T>(
    source: &dyn TraceSource,
    params: RunParams,
    cell: impl Fn(&RunMemo, Benchmark, RunParams) -> T,
) -> Vec<T> {
    let memo = RunMemo::new(source);
    Benchmark::ALL
        .into_iter()
        .map(|bench| cell(&memo, bench, params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use workloads::SyntheticSource;

    #[test]
    fn concurrent_askers_compute_a_key_exactly_once() {
        const THREADS: usize = 8;
        let slots: Slots<u32, u64> = Slots::new();
        let barrier = Barrier::new(THREADS);
        let values: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        slots.get(7, || {
                            // Finish only once every asker is inside `get`,
                            // so the others must wait on this computation.
                            while slots.requested.load(Ordering::Relaxed) < THREADS as u64 {
                                std::thread::yield_now();
                            }
                            42
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(values, vec![42; THREADS]);
        assert_eq!(slots.counts(), (THREADS as u64, 1));
    }

    #[test]
    fn equal_keys_share_a_run_and_distinct_keys_do_not() {
        let src = SyntheticSource::new(42);
        let memo = RunMemo::new(&src);
        let p = RunParams::tiny();
        let a = memo.profile(Benchmark::Gcc, ProfileSpec::gdiff(8), p);
        let b = memo.profile(Benchmark::Gcc, ProfileSpec::gdiff(32), p);
        let a2 = memo.profile(Benchmark::Gcc, ProfileSpec::gdiff(8), p);
        assert_eq!(a.stats, a2.stats);
        assert_ne!(a.stats, b.stats);
        // The depth ablation's (2, 3) point is the Table 1 machine.
        let config = PipelineConfig {
            front_end_depth: 2,
            redirect_penalty: 3,
            ..PipelineConfig::r10k()
        };
        let base = memo.pipeline(Benchmark::Gcc, EngineSpec::NoVp, p);
        let same = memo.pipeline_configured(Benchmark::Gcc, EngineSpec::NoVp, None, config, p);
        assert_eq!(base, same);
        assert_eq!(
            memo.counts(),
            RunCounts {
                pipeline_requested: 2,
                pipeline_computed: 1,
                profile_requested: 3,
                profile_computed: 2,
            }
        );
    }

    /// Each spec must simulate exactly what the construction it replaced
    /// did, so memoized experiments keep their bytes.
    #[test]
    fn engine_specs_match_the_constructions_they_replace() {
        let src = SyntheticSource::new(42);
        let p = RunParams::tiny();
        let bench = Benchmark::Vortex;
        let legacy: Vec<(EngineSpec, Box<dyn VpEngine>)> = vec![
            (EngineSpec::NoVp, Box::new(NoVp)),
            (EngineSpec::Stride8k, Box::new(LocalEngine::stride_8k())),
            (EngineSpec::Dfcm8k, Box::new(LocalEngine::dfcm_8k())),
            (EngineSpec::Sgvq, Box::new(SgvqEngine::paper_default())),
            (
                EngineSpec::paper_hgvq(),
                Box::new(HgvqEngine::paper_default()),
            ),
            (
                EngineSpec::Hgvq { threshold: 0 },
                Box::new(HgvqEngine::from_predictor(HgvqPredictor::with_config(
                    Capacity::Entries(8192),
                    32,
                    Capacity::Entries(8192),
                    ConfidenceConfig {
                        threshold: 0,
                        ..ConfidenceConfig::default()
                    },
                    StridePredictor::new(Capacity::Entries(8192)),
                ))),
            ),
            (
                EngineSpec::HgvqLastValue,
                Box::new(HgvqEngine::from_predictor(HgvqPredictor::new(
                    Capacity::Entries(8192),
                    32,
                    Capacity::Entries(8192),
                    LastValuePredictor::new(Capacity::Entries(8192)),
                ))),
            ),
            (EngineSpec::Oracle, Box::new(OracleEngine)),
        ];
        for (spec, engine) in legacy {
            let want = crate::pipe::run_pipeline_on(&src, bench, engine, p);
            let got = crate::pipe::run_pipeline_on(&src, bench, spec.build(), p);
            assert_eq!(got, want, "{spec:?}");
        }
        assert_eq!(EngineSpec::paper_hgvq(), EngineSpec::Hgvq { threshold: 4 });
    }
}
