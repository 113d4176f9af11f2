//! The traced run: per-layer costs, timed from the benchmark's own code
//! around calls into each crate's public functions.
//!
//! Profile, pipeline and experiment timings run over a [`VecSource`], so
//! generation is excluded from them and timed on its own. Every timing is
//! also an `obs::timeline` span, kept in memory and written out, once, at
//! the end as a Chrome trace.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gdiff::GDiffPredictor;
use harness::grid::{GridCell, GridSpec};
use harness::pipe::{pipeline_trace_len, run_pipeline_on};
use harness::profile::{profile_producers, run_profile_gated, run_profile_on};
use harness::sweep::{run_cell_counts, CellCounts};
use harness::RunParams;
use obs::JsonValue;
use pipeline::{HgvqEngine, LocalEngine, NoVp, SgvqEngine, VpEngine};
use predictors::{
    Capacity, ConfidenceConfig, ConfidenceTable, DfcmPredictor, MarkovConfig, PredictorStats,
    StridePredictor, ValuePredictor,
};
use serve::session::{SessionCore, SessionParams};
use tracefile::ckpt::CkptWriter;
use workloads::{Benchmark, DynInst, SyntheticSource};

use crate::config::Config;
use crate::serve_load;
use crate::source::{time_generation, VecSource};
use crate::stats::quantile;

/// Checkpoint records appended for `tracefile.ckpt_append_us_per_cell`.
const CKPT_APPENDS: usize = 2000;

/// Room for every span of the traced suite.
const TIMELINE_CAPACITY: usize = 1 << 16;

/// Correctness bookkeeping: every check is one attempted operation.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(what());
            }
        }
    }
}

/// Runs `f` inside a timeline span; returns its result and duration in
/// seconds.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = obs::timeline::start(name, "layer");
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// The sweep grid exactly as `harness sweep --grid` parses it.
pub fn parse_grid(grid: &str, seed: u64) -> Result<GridSpec, String> {
    let base = RunParams {
        seed,
        ..RunParams::profile_default()
    };
    GridSpec::parse(grid, base)
}

/// A cell's counts as the JSON object the sweep `--out` report uses.
pub fn cell_json(id: u32, c: &CellCounts) -> JsonValue {
    JsonValue::object()
        .with("id", id)
        .with("total", c.total)
        .with("predicted", c.predicted)
        .with("correct", c.correct)
        .with("confident", c.confident)
        .with("confident_correct", c.confident_correct)
        .with("table_accesses", c.table_accesses)
        .with("table_conflicts", c.table_conflicts)
        .with("table_bits", c.table_bits)
}

/// Runs `cells` on `workers` threads through `run_cell_counts`, timing
/// each; returns (cell, counts, seconds) in cell order.
pub fn run_cells(
    cells: &[GridCell],
    params: RunParams,
    workers: usize,
) -> Vec<(GridCell, CellCounts, f64)> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(cells.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(cell) = cells.get(i) else { break };
                let _span = obs::timeline::start(&format!("cell.{}", cell.id), "cell");
                let t = Instant::now();
                let counts = std::hint::black_box(run_cell_counts(*cell, params));
                let secs = t.elapsed().as_secs_f64();
                done.lock()
                    .expect("a cell thread panicked")
                    .push((*cell, counts, secs));
            });
        }
    });
    let mut done = done.into_inner().expect("a cell thread panicked");
    done.sort_by_key(|(c, _, _)| c.id);
    done
}

fn ns_per(secs: f64, n: u64) -> f64 {
    secs * 1e9 / n.max(1) as f64
}

/// Times `run_profile_on` over every benchmark; returns ns per producer.
fn time_profile<P: ValuePredictor>(
    name: &str,
    src: &VecSource,
    params: RunParams,
    mut make: impl FnMut() -> P,
    mut inspect: impl FnMut(&P, PredictorStats),
) -> f64 {
    let _root = obs::timeline::start(name, "layer");
    let mut secs = 0.0;
    for bench in Benchmark::ALL {
        let mut p = make();
        let (stats, s) = timed(&format!("{name}/{}", bench.name()), || {
            run_profile_on(src, bench, &mut p, params)
        });
        secs += s;
        inspect(&p, stats);
    }
    ns_per(
        secs,
        (profile_producers(params) * Benchmark::ALL.len()) as u64,
    )
}

fn engine(name: &str) -> Box<dyn VpEngine> {
    match name {
        "novp" => Box::new(NoVp),
        "stride" => Box::new(LocalEngine::stride_8k()),
        "sgvq" => Box::new(SgvqEngine::paper_default()),
        "hgvq" => Box::new(HgvqEngine::paper_default()),
        other => unreachable!("unknown engine {other}"),
    }
}

/// The 17 experiments of `harness all`, each through its `<exp>_on`.
fn run_experiment(exp: &str, src: &VecSource, profile: RunParams, pipe: RunParams) {
    use std::hint::black_box;
    match exp {
        "fig1" => drop(black_box(harness::fig1_on(src, profile))),
        "fig8" => drop(black_box(harness::fig8_on(src, profile))),
        "fig9" => drop(black_box(harness::fig9_on(src, profile))),
        "fig10" => drop(black_box(harness::fig10_on(src, profile))),
        "fig12" => drop(black_box(harness::fig12_on(src, pipe))),
        "fig13" => drop(black_box(harness::fig13_on(src, pipe))),
        "fig16" => drop(black_box(harness::fig16_on(src, pipe))),
        "fig18a" | "fig18b" => drop(black_box(harness::fig18_on(
            src,
            pipe,
            MarkovConfig::paper_256k(),
        ))),
        "table2" => drop(black_box(harness::table2_on(src, pipe))),
        "fig19" => drop(black_box(harness::fig19_on(src, pipe))),
        "ablate-queue" => drop(black_box(harness::ablate_queue_on(src, profile))),
        "ablate-filler" => drop(black_box(harness::ablate_filler_on(src, pipe))),
        "ablate-confidence" => drop(black_box(harness::ablate_confidence_on(src, pipe))),
        "ablate-depth" => drop(black_box(harness::ablate_depth_on(src, pipe))),
        "prefetch" => drop(black_box(harness::prefetch_on(src, pipe))),
        "limit" => drop(black_box(harness::limit_on(src, pipe))),
        other => unreachable!("unknown experiment {other}"),
    }
}

/// Runs the per-layer suite at `seed`, with scratch files and the span
/// file in `dir`.
pub fn run(cfg: &Config, seed: u64, dir: &Path) -> Result<JsonValue, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let serve = &cfg.serve;
    let profile = RunParams {
        seed,
        ..RunParams::profile_default().scaled(cfg.repro_scale)
    };
    let pipe = RunParams {
        seed,
        ..RunParams::pipeline_default().scaled(cfg.repro_scale)
    };
    obs::timeline::enable(TIMELINE_CAPACITY);
    obs::timeline::set_thread_name("layers");
    let mut m = JsonValue::object();
    let mut checks = Checks::default();

    // workloads: generation, by draining SyntheticSource::stream.
    let min_insts = pipeline_trace_len(pipe).max(serve_load::INSTS);
    let (gen, _) = timed("workloads.generate", || time_generation(seed, min_insts));
    m.set("workloads.gen_ns_per_inst", ns_per(gen.secs, gen.insts));
    let (src, _) = timed("workloads.pregenerate", || {
        VecSource::generate(seed, min_insts, profile_producers(profile))
    });

    // tracefile: the wire-chunk codec and checkpoint appends.
    let mut wires: Vec<Vec<Vec<u8>>> = Vec::new();
    let (mut bytes, mut insts) = (0u64, 0u64);
    let (_, enc_s) = timed("tracefile.encode", || {
        for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
            let chunks: Vec<Vec<u8>> = src
                .insts(bench)
                .chunks(serve.chunk)
                .map(|c| tracefile::encode_wire_chunk(c, i as u32))
                .collect();
            bytes += chunks.iter().map(|c| c.len() as u64).sum::<u64>();
            insts += src.insts(bench).len() as u64;
            wires.push(chunks);
        }
    });
    let mut decoded: Vec<Vec<Vec<DynInst>>> = Vec::new();
    let (decode_ok, dec_s) = timed("tracefile.decode", || {
        let mut ok = true;
        for chunks in &wires {
            let mut per_bench = Vec::with_capacity(chunks.len());
            for w in chunks {
                let mut out = Vec::with_capacity(serve.chunk);
                ok &=
                    tracefile::decode_wire_chunk(w, tracefile::DEFAULT_CHUNK_CAP, &mut out).is_ok();
                per_bench.push(out);
            }
            decoded.push(per_bench);
        }
        ok
    });
    for (bench, chunks) in Benchmark::ALL.into_iter().zip(&decoded) {
        let round_trip: Vec<DynInst> = chunks.concat();
        checks.check(decode_ok && round_trip == src.insts(bench), || {
            format!("tracefile round trip differs on {}", bench.name())
        });
    }
    m.set("tracefile.encode_ns_per_inst", ns_per(enc_s, insts));
    m.set("tracefile.decode_ns_per_inst", ns_per(dec_s, insts));
    m.set("tracefile.bytes_per_inst", bytes as f64 / insts as f64);
    drop(wires);
    drop(decoded);

    let ckpt_path = dir.join("layers.ckpt");
    let payload = CellCounts {
        total: 400_000,
        predicted: 280_000,
        correct: 260_000,
        confident: 250_000,
        confident_correct: 240_000,
        table_accesses: 1_200_000,
        table_conflicts: 4_000,
        table_bits: 637_824,
    }
    .to_payload();
    let (appended, ckpt_s) = timed("tracefile.ckpt_append", || -> std::io::Result<()> {
        let mut w = CkptWriter::create(&ckpt_path, 0x5eed)?;
        for cell in 0..CKPT_APPENDS {
            w.append(cell as u32, 0, &payload)?;
        }
        Ok(())
    });
    appended.map_err(|e| format!("{}: {e}", ckpt_path.display()))?;
    let _ = std::fs::remove_file(&ckpt_path);
    m.set(
        "tracefile.ckpt_append_us_per_cell",
        ckpt_s * 1e6 / CKPT_APPENDS as f64,
    );

    // predictors and core: the §3 profile loop per predictor.
    let unbounded = Capacity::Unbounded;
    let e8k = Capacity::Entries(8192);
    let mut gdiff_stats = Vec::new();
    let ns = time_profile(
        "profile.gdiff.unbounded",
        &src,
        profile,
        || GDiffPredictor::new(unbounded, 8),
        |_, s| gdiff_stats.push(s),
    );
    m.set("profile.gdiff_ns_per_producer.unbounded", ns);
    let (mut accesses, mut conflicts) = (0u64, 0u64);
    let ns = time_profile(
        "profile.gdiff.entries8k",
        &src,
        profile,
        || GDiffPredictor::new(e8k, 8),
        |p, _| {
            accesses += p.core().table_accesses();
            conflicts += p.core().table_conflicts();
        },
    );
    m.set("profile.gdiff_ns_per_producer.entries8k", ns);
    m.set(
        "profile.gdiff_conflict_ratio.entries8k",
        conflicts as f64 / accesses.max(1) as f64,
    );
    m.set("profile.gdiff_table_accesses.entries8k", accesses);
    let mut gated_s = 0.0;
    {
        let _root = obs::timeline::start("profile.gdiff_gated", "layer");
        for bench in Benchmark::ALL {
            let mut p = GDiffPredictor::new(unbounded, 8);
            let mut conf = ConfidenceTable::new(unbounded, ConfidenceConfig::default());
            let (_, s) = timed(&format!("profile.gdiff_gated/{}", bench.name()), || {
                run_profile_gated(&src, bench, &mut p, Some(&mut conf), profile)
            });
            gated_s += s;
        }
    }
    let producers = (profile_producers(profile) * Benchmark::ALL.len()) as u64;
    m.set(
        "profile.gdiff_gated_ns_per_producer",
        ns_per(gated_s, producers),
    );
    let ns = time_profile(
        "profile.stride",
        &src,
        profile,
        || StridePredictor::new(unbounded),
        |_, _| {},
    );
    m.set("profile.stride_ns_per_producer", ns);
    let ns = time_profile(
        "profile.dfcm",
        &src,
        profile,
        || DfcmPredictor::new(unbounded, 4, 16),
        |_, _| {},
    );
    m.set("profile.dfcm_ns_per_producer", ns);

    // pipeline: the OOO simulator per value-prediction engine.
    let mut sim_cycles = 0u64;
    let mut hgvq_stats = Vec::new();
    for name in ["novp", "stride", "sgvq", "hgvq"] {
        let _root = obs::timeline::start(&format!("pipeline.{name}"), "layer");
        let (mut secs, mut pulled) = (0.0, 0u64);
        for bench in Benchmark::ALL {
            let before = src.pulled();
            let (stats, s) = timed(&format!("pipeline.{name}/{}", bench.name()), || {
                run_pipeline_on(&src, bench, engine(name), pipe)
            });
            secs += s;
            pulled += src.pulled() - before;
            sim_cycles += stats.cycles;
            if name == "hgvq" {
                hgvq_stats.push(format!("{stats:?}"));
            }
        }
        m.set(format!("pipeline.ns_per_inst.{name}"), ns_per(secs, pulled));
    }
    m.set("pipeline.sim_cycles", sim_cycles);

    // The Vec-backed source must measure the same program: stats over it
    // are bit-identical to the synthetic models' at the same seed.
    {
        let _verify = obs::timeline::start("verify.vec_source", "check");
        let synthetic = SyntheticSource::new(seed);
        for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
            let direct = run_profile_on(
                &synthetic,
                bench,
                &mut GDiffPredictor::new(unbounded, 8),
                profile,
            );
            checks.check(direct == gdiff_stats[i], || {
                format!("run_profile_on differs on {}", bench.name())
            });
            let direct = run_pipeline_on(&synthetic, bench, engine("hgvq"), pipe);
            checks.check(format!("{direct:?}") == hgvq_stats[i], || {
                format!("run_pipeline_on differs on {}", bench.name())
            });
        }
    }

    // serve: SessionCore::feed_chunk over the workload's chunks, no socket.
    let (mut feed_s, mut fed) = (0.0, 0u64);
    {
        let _root = obs::timeline::start("serve.feed_chunk", "layer");
        for (i, bench) in Benchmark::ALL.into_iter().enumerate() {
            let prefix = &src.insts(bench)[..serve_load::INSTS];
            let chunks: Vec<Vec<DynInst>> = prefix
                .chunks(serve.chunk)
                .map(<[DynInst]>::to_vec)
                .collect();
            let producers = prefix.iter().filter(|x| x.produces_value()).count() as u64;
            let table = serve_load::TABLES[i % serve_load::TABLES.len()];
            let mut core = SessionCore::new(SessionParams {
                name: bench.name().to_string(),
                order: serve_load::ORDER,
                table,
                delay: 0,
                warmup: serve_load::WARMUP,
                measure: producers - serve_load::WARMUP,
                hold: false,
            });
            let (_, s) = timed(&format!("serve.feed_chunk/{}", bench.name()), || {
                for c in &chunks {
                    core.feed_chunk(c);
                }
            });
            feed_s += s;
            fed += core.producers();
            let cap = if table == 0 {
                unbounded
            } else {
                Capacity::Entries(table)
            };
            let one_shot = VecSource::from_streams(
                Benchmark::ALL
                    .into_iter()
                    .map(|b| {
                        if b == bench {
                            prefix.to_vec()
                        } else {
                            Vec::new()
                        }
                    })
                    .collect(),
            );
            let params = RunParams {
                seed,
                warmup: serve_load::WARMUP,
                measure: producers - serve_load::WARMUP,
            };
            let want = run_profile_on(
                &one_shot,
                bench,
                &mut GDiffPredictor::new(cap, serve_load::ORDER),
                params,
            );
            checks.check(*core.stats() == want, || {
                format!("feed_chunk differs from run_profile_on on {}", bench.name())
            });
        }
    }
    m.set("serve.feed_ns_per_producer", ns_per(feed_s, fed));

    // harness: the 17 experiments of `harness all`, each through `<exp>_on`.
    let pulled_before = src.pulled();
    let mut experiments_s = 0.0;
    {
        let _root = obs::timeline::start("harness.repro", "layer");
        for exp in harness::cells::ALL_EXPERIMENTS {
            let (_, s) = timed(&format!("harness.experiment.{exp}"), || {
                run_experiment(exp, &src, profile, pipe)
            });
            experiments_s += s;
            m.set(format!("harness.experiment_s.{exp}"), s);
        }
    }
    let repro_insts = src.pulled() - pulled_before;
    m.set("workloads.insts_generated.repro", repro_insts);
    checks.check(!src.overrun(), || {
        "an experiment read past the pre-generated prefix".to_string()
    });

    // harness: every cell of the sweep grid through run_cell_counts.
    let grid = parse_grid(&cfg.sweep_grid, seed)?;
    let cells: Vec<GridCell> = grid.cells().collect();
    let done = {
        let _root = obs::timeline::start("harness.sweep.cells", "layer");
        run_cells(&cells, grid.params, cfg.sweep_workers)
    };
    let mut cell_ms: Vec<f64> = done.iter().map(|(_, _, s)| s * 1e3).collect();
    cell_ms.sort_by(f64::total_cmp);
    m.set("harness.sweep.cell_ms_p50", quantile(&cell_ms, 0.5));
    m.set("harness.sweep.cell_ms_p99", quantile(&cell_ms, 0.99));

    obs::timeline::disable();
    let spans_path = dir.join("layer-spans.json");
    std::fs::write(&spans_path, obs::timeline::export().to_json())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    Ok(JsonValue::object()
        .with("metrics", m)
        .with("experiments_s", experiments_s)
        .with("cell_samples", cell_ms.len() as u64)
        .with("cell_s_total", cell_ms.iter().sum::<f64>() / 1e3)
        .with(
            "cells",
            done.iter()
                .map(|(c, k, _)| cell_json(c.id, k))
                .collect::<Vec<_>>(),
        )
        .with("attempted", checks.attempted)
        .with("failed", checks.failed)
        .with("errors", checks.errors)
        .with("spans", spans_path.display().to_string())
        .with("span_count", obs::timeline::recorded())
        .with("spans_dropped", obs::timeline::dropped()))
}
