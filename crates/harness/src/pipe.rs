//! Pipeline experiments (§4, §5, §7): Figures 12, 13, 16, 19, Table 2 and
//! the pipeline-side ablations.

use pipeline::{PipelineConfig, Prefetcher, SimStats, Simulator, VpEngine};
use workloads::{Benchmark, SyntheticSource, TraceSource};

use crate::memo::{per_bench_on, EngineSpec, PrefetchSpec, RunMemo};
use crate::RunParams;

/// The raw-instruction prefix a pipeline experiment consumes: warmup +
/// measure + settle margin, doubled so the window never drains early.
/// Recording tools use this to size captured traces.
pub fn pipeline_trace_len(params: RunParams) -> usize {
    (params.warmup + params.measure + 50_000) as usize * 2
}

/// Runs one benchmark through the Table 1 pipeline with `engine`.
pub fn run_pipeline(bench: Benchmark, engine: Box<dyn VpEngine>, params: RunParams) -> SimStats {
    run_pipeline_configured(bench, engine, None, PipelineConfig::r10k(), params)
}

/// [`run_pipeline`] with an explicit instruction origin: the synthetic
/// models or a recorded trace file.
pub fn run_pipeline_on(
    source: &dyn TraceSource,
    bench: Benchmark,
    engine: Box<dyn VpEngine>,
    params: RunParams,
) -> SimStats {
    run_pipeline_configured_on(source, bench, engine, None, PipelineConfig::r10k(), params)
}

/// [`run_pipeline_on`] additionally collecting the prediction-provenance
/// aggregate over the measurement phase (`harness explain`).
pub fn run_pipeline_with_provenance(
    source: &dyn TraceSource,
    bench: Benchmark,
    engine: Box<dyn VpEngine>,
    params: RunParams,
) -> (SimStats, obs::Provenance) {
    let _span = obs::span::span("pipeline.run");
    let trace = source.stream(bench).take(pipeline_trace_len(params));
    Simulator::new(PipelineConfig::r10k(), engine).run_with_provenance(
        trace,
        params.warmup,
        params.measure,
    )
}

/// Full-control pipeline run: custom machine configuration and optional
/// prefetcher.
pub fn run_pipeline_configured(
    bench: Benchmark,
    engine: Box<dyn VpEngine>,
    prefetcher: Option<Box<dyn Prefetcher>>,
    config: PipelineConfig,
    params: RunParams,
) -> SimStats {
    run_pipeline_configured_on(
        &SyntheticSource::new(params.seed),
        bench,
        engine,
        prefetcher,
        config,
        params,
    )
}

/// [`run_pipeline_configured`] with an explicit instruction origin.
pub fn run_pipeline_configured_on(
    source: &dyn TraceSource,
    bench: Benchmark,
    engine: Box<dyn VpEngine>,
    prefetcher: Option<Box<dyn Prefetcher>>,
    config: PipelineConfig,
    params: RunParams,
) -> SimStats {
    let _span = obs::span::span("pipeline.run");
    let trace = source.stream(bench).take(pipeline_trace_len(params));
    let mut sim = Simulator::new(config, engine);
    if let Some(p) = prefetcher {
        sim = sim.with_prefetcher(p);
    }
    sim.run(trace, params.warmup, params.measure)
}

// ---------------------------------------------------------------------
// Figure 12
// ---------------------------------------------------------------------

/// The value-delay distribution of one pipeline run.
#[derive(Debug, Clone)]
pub struct DelayDistribution {
    /// Benchmark measured (the paper uses vortex).
    pub bench: Benchmark,
    /// Fraction of value-producing instructions per delay `0..=20`.
    pub fractions: Vec<f64>,
    /// Mean delay (the paper reports roughly 5).
    pub mean: f64,
    /// The full simulation statistics behind the distribution (cycles,
    /// IPC, predictor stats, delay percentiles) for run reports.
    pub stats: SimStats,
}

impl DelayDistribution {
    /// The distribution plus the underlying [`SimStats`] as JSON.
    pub fn to_json(&self) -> obs::JsonValue {
        self.stats
            .to_json()
            .with("bench", self.bench.to_string())
            .with("fractions", self.fractions.clone())
            .with("mean_delay", self.mean)
    }
}

/// Regenerates Figure 12: the distribution of value delays (values
/// produced between dispatch and write-back) in the OOO pipeline.
pub fn fig12(params: RunParams) -> DelayDistribution {
    fig12_on(&SyntheticSource::new(params.seed), params)
}

/// [`fig12`] against an explicit instruction origin.
pub fn fig12_on(source: &dyn TraceSource, params: RunParams) -> DelayDistribution {
    fig12_cell(&RunMemo::new(source), params)
}

/// Figure 12 through a shared run memo — the schedulable cell.
pub fn fig12_cell(memo: &RunMemo, params: RunParams) -> DelayDistribution {
    let bench = Benchmark::Vortex;
    let stats = memo.pipeline(bench, EngineSpec::NoVp, params);
    DelayDistribution {
        bench,
        fractions: (0..=20).map(|d| stats.delays.fraction(d)).collect(),
        mean: stats.delays.mean(),
        stats,
    }
}

// ---------------------------------------------------------------------
// Figures 13 and 16
// ---------------------------------------------------------------------

/// Accuracy/coverage of the predictors compared in Figures 13 and 16.
#[derive(Debug, Clone)]
pub struct PipelineVpRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// gDiff gated accuracy (SGVQ for fig13, HGVQ for fig16).
    pub gdiff_accuracy: f64,
    /// gDiff coverage.
    pub gdiff_coverage: f64,
    /// Local stride gated accuracy.
    pub stride_accuracy: f64,
    /// Local stride coverage.
    pub stride_coverage: f64,
    /// Local context (DFCM) gated accuracy (fig16 only; 0 in fig13).
    pub context_accuracy: f64,
    /// Local context coverage.
    pub context_coverage: f64,
}

fn vp_comparison_bench(
    memo: &RunMemo,
    bench: Benchmark,
    params: RunParams,
    gdiff: EngineSpec,
    with_context: bool,
) -> PipelineVpRow {
    let g = memo.pipeline(bench, gdiff, params);
    let s = memo.pipeline(bench, EngineSpec::Stride8k, params);
    let (ca, cc) = if with_context {
        let c = memo.pipeline(bench, EngineSpec::Dfcm8k, params);
        (c.vp.gated_accuracy(), c.vp.coverage())
    } else {
        (0.0, 0.0)
    };
    PipelineVpRow {
        bench,
        gdiff_accuracy: g.vp.gated_accuracy(),
        gdiff_coverage: g.vp.coverage(),
        stride_accuracy: s.vp.gated_accuracy(),
        stride_coverage: s.vp.coverage(),
        context_accuracy: ca,
        context_coverage: cc,
    }
}

/// One benchmark's Figure 13 row — the independently schedulable cell.
pub fn fig13_bench(memo: &RunMemo, bench: Benchmark, params: RunParams) -> PipelineVpRow {
    vp_comparison_bench(memo, bench, params, EngineSpec::Sgvq, false)
}

/// One benchmark's Figure 16 row — the independently schedulable cell.
pub fn fig16_bench(memo: &RunMemo, bench: Benchmark, params: RunParams) -> PipelineVpRow {
    vp_comparison_bench(memo, bench, params, EngineSpec::paper_hgvq(), true)
}

/// Regenerates Figure 13: gDiff with the *speculative* GVQ (order 32)
/// vs the local stride predictor, in the pipeline, 3-bit confidence.
pub fn fig13(params: RunParams) -> Vec<PipelineVpRow> {
    fig13_on(&SyntheticSource::new(params.seed), params)
}

/// [`fig13`] against an explicit instruction origin.
pub fn fig13_on(source: &dyn TraceSource, params: RunParams) -> Vec<PipelineVpRow> {
    per_bench_on(source, params, fig13_bench)
}

/// Regenerates Figure 16: gDiff with the *hybrid* GVQ (order 32) vs local
/// stride vs local context.
pub fn fig16(params: RunParams) -> Vec<PipelineVpRow> {
    fig16_on(&SyntheticSource::new(params.seed), params)
}

/// [`fig16`] against an explicit instruction origin.
pub fn fig16_on(source: &dyn TraceSource, params: RunParams) -> Vec<PipelineVpRow> {
    per_bench_on(source, params, fig16_bench)
}

// ---------------------------------------------------------------------
// Table 2 and Figure 19
// ---------------------------------------------------------------------

/// Baseline IPC (no value speculation) — Table 2.
pub fn table2(params: RunParams) -> Vec<(Benchmark, f64)> {
    table2_on(&SyntheticSource::new(params.seed), params)
}

/// [`table2`] against an explicit instruction origin.
pub fn table2_on(source: &dyn TraceSource, params: RunParams) -> Vec<(Benchmark, f64)> {
    per_bench_on(source, params, table2_bench)
}

/// One benchmark's baseline IPC — the independently schedulable cell.
pub fn table2_bench(memo: &RunMemo, bench: Benchmark, params: RunParams) -> (Benchmark, f64) {
    (bench, memo.pipeline(bench, EngineSpec::NoVp, params).ipc())
}

/// Speedups of value speculation over the baseline — Figure 19.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Baseline IPC (Table 2).
    pub baseline_ipc: f64,
    /// Speedup of local stride value speculation (1.0 = no change).
    pub local_stride: f64,
    /// Speedup of local context (DFCM) value speculation.
    pub local_context: f64,
    /// Speedup of gDiff (HGVQ) value speculation.
    pub gdiff: f64,
}

/// Regenerates Figure 19: per-benchmark speedups and their harmonic mean.
pub fn fig19(params: RunParams) -> Vec<SpeedupRow> {
    fig19_on(&SyntheticSource::new(params.seed), params)
}

/// [`fig19`] against an explicit instruction origin.
pub fn fig19_on(source: &dyn TraceSource, params: RunParams) -> Vec<SpeedupRow> {
    per_bench_on(source, params, fig19_bench)
}

/// One benchmark's Figure 19 row — the independently schedulable cell.
pub fn fig19_bench(memo: &RunMemo, bench: Benchmark, params: RunParams) -> SpeedupRow {
    let ipc = |engine| memo.pipeline(bench, engine, params).ipc();
    let base = ipc(EngineSpec::NoVp);
    let st = ipc(EngineSpec::Stride8k);
    let cx = ipc(EngineSpec::Dfcm8k);
    let gd = ipc(EngineSpec::paper_hgvq());
    SpeedupRow {
        bench,
        baseline_ipc: base,
        local_stride: st / base,
        local_context: cx / base,
        gdiff: gd / base,
    }
}

/// Harmonic mean of a set of speedup ratios.
pub fn harmonic_mean(ratios: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = ratios.into_iter().collect();
    v.len() as f64 / v.iter().map(|r| 1.0 / r).sum::<f64>()
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// HGVQ filler ablation: what fills the queue at dispatch matters.
#[derive(Debug, Clone)]
pub struct FillerRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// (accuracy, coverage) with the paper's local-stride filler.
    pub stride_filler: (f64, f64),
    /// (accuracy, coverage) with a last-value filler.
    pub last_value_filler: (f64, f64),
    /// (accuracy, coverage) with no filler at all (SGVQ).
    pub no_filler: (f64, f64),
}

/// Ablates the HGVQ filler: paper's stride filler vs a last-value filler
/// vs none (which degenerates to the SGVQ design).
pub fn ablate_filler(params: RunParams) -> Vec<FillerRow> {
    ablate_filler_on(&SyntheticSource::new(params.seed), params)
}

/// [`ablate_filler`] against an explicit instruction origin.
pub fn ablate_filler_on(source: &dyn TraceSource, params: RunParams) -> Vec<FillerRow> {
    per_bench_on(source, params, ablate_filler_bench)
}

/// One benchmark's filler-ablation row — the independently schedulable
/// cell.
pub fn ablate_filler_bench(memo: &RunMemo, bench: Benchmark, params: RunParams) -> FillerRow {
    let stride = memo.pipeline(bench, EngineSpec::paper_hgvq(), params);
    let lv = memo.pipeline(bench, EngineSpec::HgvqLastValue, params);
    let none = memo.pipeline(bench, EngineSpec::Sgvq, params);
    FillerRow {
        bench,
        stride_filler: (stride.vp.gated_accuracy(), stride.vp.coverage()),
        last_value_filler: (lv.vp.gated_accuracy(), lv.vp.coverage()),
        no_filler: (none.vp.gated_accuracy(), none.vp.coverage()),
    }
}

/// Confidence-mechanism ablation result.
#[derive(Debug, Clone)]
pub struct ConfidenceRow {
    /// Confidence threshold swept (0 = gating off: speculate on every
    /// prediction).
    pub threshold: u8,
    /// Mean gated accuracy over all benchmarks.
    pub accuracy: f64,
    /// Mean coverage.
    pub coverage: f64,
    /// Harmonic-mean speedup over the no-VP baseline.
    pub speedup: f64,
}

/// Ablates the 3-bit confidence mechanism on the HGVQ engine: thresholds
/// 0 (off), 2, 4 (paper), 6.
pub fn ablate_confidence(params: RunParams) -> Vec<ConfidenceRow> {
    ablate_confidence_on(&SyntheticSource::new(params.seed), params)
}

/// The confidence thresholds swept by [`ablate_confidence`].
pub fn ablate_confidence_thresholds() -> [u8; 4] {
    [0, 2, 4, 6]
}

/// [`ablate_confidence`] against an explicit instruction origin.
pub fn ablate_confidence_on(source: &dyn TraceSource, params: RunParams) -> Vec<ConfidenceRow> {
    let memo = RunMemo::new(source);
    ablate_confidence_thresholds()
        .into_iter()
        .map(|threshold| ablate_confidence_point(&memo, threshold, params))
        .collect()
}

/// One threshold's confidence-ablation row (all benchmarks inside) — the
/// independently schedulable cell.
pub fn ablate_confidence_point(memo: &RunMemo, threshold: u8, params: RunParams) -> ConfidenceRow {
    let mut accs = Vec::new();
    let mut covs = Vec::new();
    let mut ratios = Vec::new();
    for bench in Benchmark::ALL {
        let base = memo.pipeline(bench, EngineSpec::NoVp, params).ipc();
        let s = memo.pipeline(bench, EngineSpec::Hgvq { threshold }, params);
        accs.push(s.vp.gated_accuracy());
        covs.push(s.vp.coverage());
        ratios.push(s.ipc() / base);
    }
    ConfidenceRow {
        threshold,
        accuracy: accs.iter().sum::<f64>() / accs.len() as f64,
        coverage: covs.iter().sum::<f64>() / covs.len() as f64,
        speedup: harmonic_mean(ratios),
    }
}

// ---------------------------------------------------------------------
// Extensions: prefetching, the oracle limit, pipeline depth
// ---------------------------------------------------------------------

/// One benchmark's row of the prefetching extension study.
#[derive(Debug, Clone)]
pub struct PrefetchRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Baseline (no prefetch): D-cache miss rate and IPC.
    pub base_miss_rate: f64,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// IPC speedup ratios for next-line / local stride / gDiff prefetching.
    pub next_line: f64,
    /// Local-stride-directed prefetching speedup.
    pub stride: f64,
    /// gDiff-directed prefetching speedup.
    pub gdiff: f64,
    /// Useful-prefetch fraction for the gDiff prefetcher
    /// (useful / issued).
    pub gdiff_useful: f64,
}

/// The §6/§8 future-work extension: address-prediction-driven prefetching.
///
/// Confidently predicted load addresses start their cache fill at dispatch;
/// a later demand miss that finds the fill in flight pays only the
/// remaining latency.
pub fn prefetch(params: RunParams) -> Vec<PrefetchRow> {
    prefetch_on(&SyntheticSource::new(params.seed), params)
}

/// [`prefetch`] against an explicit instruction origin.
pub fn prefetch_on(source: &dyn TraceSource, params: RunParams) -> Vec<PrefetchRow> {
    per_bench_on(source, params, prefetch_bench)
}

/// One benchmark's prefetch row — the independently schedulable cell.
pub fn prefetch_bench(memo: &RunMemo, bench: Benchmark, params: RunParams) -> PrefetchRow {
    let with = |prefetch| {
        memo.pipeline_configured(
            bench,
            EngineSpec::NoVp,
            prefetch,
            PipelineConfig::r10k(),
            params,
        )
    };
    let base = with(None);
    let nl = with(Some(PrefetchSpec::NextLine));
    let st = with(Some(PrefetchSpec::Stride));
    let gd = with(Some(PrefetchSpec::GDiff));
    PrefetchRow {
        bench,
        base_miss_rate: base.dcache_miss_rate,
        base_ipc: base.ipc(),
        next_line: nl.ipc() / base.ipc(),
        stride: st.ipc() / base.ipc(),
        gdiff: gd.ipc() / base.ipc(),
        gdiff_useful: if gd.prefetches_issued == 0 {
            0.0
        } else {
            gd.prefetches_useful as f64 / gd.prefetches_issued as f64
        },
    }
}

/// One benchmark's row of the oracle limit study.
#[derive(Debug, Clone)]
pub struct LimitRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// Baseline IPC.
    pub base_ipc: f64,
    /// gDiff (HGVQ) speedup ratio.
    pub gdiff: f64,
    /// Perfect-value-prediction speedup ratio — the ceiling.
    pub oracle: f64,
}

/// How much of the perfect-value-prediction headroom gDiff captures
/// (the Sazeides \[24\] style limit study the paper's §7 leans on).
pub fn limit(params: RunParams) -> Vec<LimitRow> {
    limit_on(&SyntheticSource::new(params.seed), params)
}

/// [`limit`] against an explicit instruction origin.
pub fn limit_on(source: &dyn TraceSource, params: RunParams) -> Vec<LimitRow> {
    per_bench_on(source, params, limit_bench)
}

/// One benchmark's limit-study row — the independently schedulable cell.
pub fn limit_bench(memo: &RunMemo, bench: Benchmark, params: RunParams) -> LimitRow {
    let ipc = |engine| memo.pipeline(bench, engine, params).ipc();
    let base = ipc(EngineSpec::NoVp);
    let gd = ipc(EngineSpec::paper_hgvq());
    let oracle = ipc(EngineSpec::Oracle);
    LimitRow {
        bench,
        base_ipc: base,
        gdiff: gd / base,
        oracle: oracle / base,
    }
}

/// One front-end-depth point of the deeper-pipeline ablation.
#[derive(Debug, Clone)]
pub struct DepthRow {
    /// Fetch→dispatch depth (decode stages) swept.
    pub depth: u64,
    /// Matching branch redirect penalty.
    pub redirect: u64,
    /// Mean value delay observed (vortex).
    pub mean_delay: f64,
    /// H-mean speedup of gDiff (HGVQ) over no-VP at this depth.
    pub gdiff_speedup: f64,
    /// H-mean speedup of local stride at this depth.
    pub stride_speedup: f64,
}

/// The §8 future-work question: how does value prediction interact with a
/// deeper pipeline? The sweep measures the observed value delay and both
/// predictors' speedups as the fetch→dispatch depth and redirect penalty
/// grow.
pub fn ablate_depth(params: RunParams) -> Vec<DepthRow> {
    ablate_depth_on(&SyntheticSource::new(params.seed), params)
}

/// The (front-end depth, redirect penalty) points swept by
/// [`ablate_depth`].
pub fn ablate_depth_points() -> [(u64, u64); 4] {
    [(2, 3), (4, 6), (8, 10), (12, 16)]
}

/// [`ablate_depth`] against an explicit instruction origin.
pub fn ablate_depth_on(source: &dyn TraceSource, params: RunParams) -> Vec<DepthRow> {
    let memo = RunMemo::new(source);
    ablate_depth_points()
        .into_iter()
        .map(|point| ablate_depth_point(&memo, point, params))
        .collect()
}

/// One (depth, redirect) point of the depth ablation (all benchmarks
/// inside) — the independently schedulable cell.
pub fn ablate_depth_point(
    memo: &RunMemo,
    (depth, redirect): (u64, u64),
    params: RunParams,
) -> DepthRow {
    let config = PipelineConfig {
        front_end_depth: depth,
        redirect_penalty: redirect,
        ..PipelineConfig::r10k()
    };
    let mut gd_ratios = Vec::new();
    let mut st_ratios = Vec::new();
    let mut delay = 0.0;
    for bench in Benchmark::ALL {
        let run = |engine| memo.pipeline_configured(bench, engine, None, config, params);
        let base = run(EngineSpec::NoVp);
        let gd = run(EngineSpec::paper_hgvq());
        let st = run(EngineSpec::Stride8k);
        gd_ratios.push(gd.ipc() / base.ipc());
        st_ratios.push(st.ipc() / base.ipc());
        if bench == Benchmark::Vortex {
            delay = base.delays.mean();
        }
    }
    DepthRow {
        depth,
        redirect,
        mean_delay: delay,
        gdiff_speedup: harmonic_mean(gd_ratios),
        stride_speedup: harmonic_mean(st_ratios),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_mean_delay_is_moderate() {
        let d = fig12(RunParams::tiny());
        assert!(d.mean > 1.0 && d.mean < 30.0, "mean {}", d.mean);
        let total: f64 = d.fractions.iter().sum();
        assert!(total > 0.5, "most delays within 0..=20: {total}");
    }

    #[test]
    fn fig12_json_carries_sim_stats_and_percentiles() {
        let d = fig12(RunParams::tiny());
        let j = d.to_json();
        // The acceptance surface of the run report: cycles, IPC, vp
        // accuracy/coverage, and delay percentiles must all be present
        // and survive a parse round trip.
        let text = j.to_json();
        let p = obs::JsonValue::parse(&text).expect("valid JSON");
        assert!(p.path("cycles").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(p.path("ipc").and_then(|v| v.as_f64()).unwrap() > 0.0);
        assert!(p.path("vp.coverage").and_then(|v| v.as_f64()).is_some());
        assert!(p
            .path("vp.gated_accuracy")
            .and_then(|v| v.as_f64())
            .is_some());
        assert!(p.path("delays.p50").and_then(|v| v.as_f64()).is_some());
        assert!(p.path("delays.p99").and_then(|v| v.as_f64()).is_some());
        assert_eq!(p.path("bench").and_then(|v| v.as_str()), Some("vortex"));
        // And the pipeline runs were timed via spans.
        let timings = obs::span::snapshot();
        assert!(timings
            .iter()
            .any(|(n, s)| n == "pipeline.run" && s.count > 0));
    }

    #[test]
    fn fig16_gdiff_dominates_locals() {
        let rows = fig16(RunParams::tiny());
        let g_cov: f64 = rows.iter().map(|r| r.gdiff_coverage).sum::<f64>() / rows.len() as f64;
        let s_cov: f64 = rows.iter().map(|r| r.stride_coverage).sum::<f64>() / rows.len() as f64;
        let c_cov: f64 = rows.iter().map(|r| r.context_coverage).sum::<f64>() / rows.len() as f64;
        assert!(g_cov > s_cov, "gdiff coverage {g_cov} vs stride {s_cov}");
        assert!(s_cov > c_cov, "stride coverage {s_cov} vs context {c_cov}");
        let g_acc: f64 = rows.iter().map(|r| r.gdiff_accuracy).sum::<f64>() / rows.len() as f64;
        assert!(g_acc > 0.75, "gdiff accuracy {g_acc}");
    }

    #[test]
    fn fig13_sgvq_trails_hgvq() {
        let p = RunParams::tiny();
        let sgvq = fig13(p);
        let hgvq = fig16(p);
        let s: f64 = sgvq.iter().map(|r| r.gdiff_coverage).sum();
        let h: f64 = hgvq.iter().map(|r| r.gdiff_coverage).sum();
        assert!(h > s, "hybrid queue must add coverage: {h} vs {s}");
    }

    #[test]
    fn fig19_gdiff_wins_harmonic_mean() {
        let rows = fig19(RunParams::tiny());
        let g = harmonic_mean(rows.iter().map(|r| r.gdiff));
        let s = harmonic_mean(rows.iter().map(|r| r.local_stride));
        assert!(g >= s - 0.01, "gdiff {g} vs stride {s}");
        assert!(g > 1.0, "value speculation must speed things up: {g}");
    }

    #[test]
    fn oracle_is_an_upper_bound() {
        let p = RunParams::tiny();
        for bench in [Benchmark::Gcc, Benchmark::Twolf] {
            let rows = limit(p);
            let r = rows.iter().find(|r| r.bench == bench).unwrap();
            assert!(
                r.oracle >= r.gdiff - 0.02,
                "{bench}: oracle {} vs gdiff {}",
                r.oracle,
                r.gdiff
            );
            assert!(
                r.oracle > 1.05,
                "{bench}: perfect VP must clearly help: {}",
                r.oracle
            );
        }
    }

    #[test]
    fn prefetching_helps_memory_bound_benchmarks() {
        let rows = prefetch(RunParams::tiny());
        let mcf = rows.iter().find(|r| r.bench == Benchmark::Mcf).unwrap();
        assert!(
            mcf.base_miss_rate > 0.2,
            "mcf misses a lot: {}",
            mcf.base_miss_rate
        );
        // Bump allocation gives mcf strong spatial locality: next-line
        // prefetching must clearly win there.
        assert!(
            mcf.next_line > 1.05,
            "next-line must speed mcf up: {}",
            mcf.next_line
        );
        // The gdiff prefetcher is coverage-limited on the jittered chase
        // but must never hurt, and what it prefetches must be useful.
        assert!(
            mcf.gdiff >= 0.995,
            "gdiff prefetching must not hurt: {}",
            mcf.gdiff
        );
        assert!(
            mcf.gdiff_useful > 0.5,
            "gdiff prefetches are accurate: {}",
            mcf.gdiff_useful
        );
    }

    #[test]
    fn harmonic_mean_is_correct() {
        assert!((harmonic_mean([1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean([2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean([1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
    }
}
