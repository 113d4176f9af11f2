//! Run every predictor in the workspace over the parser benchmark model
//! and print a Figure 8-style comparison — including the hybrid and the
//! previous-instruction (PI) global context baseline.
//!
//! ```text
//! cargo run -p harness --release --example spill_fill
//! ```

use gdiff::GDiffPredictor;
use predictors::{
    Capacity, DfcmPredictor, GlobalContextPredictor, HybridPredictor, LastValuePredictor,
    PiPredictor, PredictorStats, ProfileLoop, StridePredictor, ValuePredictor,
};
use workloads::Benchmark;

fn score(bench: Benchmark, p: &mut dyn ValuePredictor) -> PredictorStats {
    let mut run = ProfileLoop::new(50_000, 350_000);
    for inst in bench
        .build(42)
        .filter(|i| i.produces_value())
        .take(run.limit() as usize)
    {
        run.step(p, None, inst.pc, inst.value);
    }
    *run.stats()
}

fn main() {
    let bench = Benchmark::Parser;
    println!("profile accuracy on {bench} (350k values after 50k warm-up):\n");

    let mut predictors: Vec<(&str, Box<dyn ValuePredictor>)> = vec![
        (
            "last-value",
            Box::new(LastValuePredictor::new(Capacity::Unbounded)),
        ),
        (
            "local stride (2-delta)",
            Box::new(StridePredictor::new(Capacity::Unbounded)),
        ),
        (
            "local context (DFCM)",
            Box::new(DfcmPredictor::new(Capacity::Unbounded, 4, 16)),
        ),
        (
            "PI (order-1 global context)",
            Box::new(PiPredictor::new(Capacity::Unbounded)),
        ),
        (
            "global context (order 3)",
            Box::new(GlobalContextPredictor::new(Capacity::Unbounded, 3, 16)),
        ),
        (
            "hybrid stride+DFCM",
            Box::new(HybridPredictor::new(
                StridePredictor::new(Capacity::Unbounded),
                DfcmPredictor::new(Capacity::Unbounded, 4, 16),
                Capacity::Unbounded,
            )),
        ),
        (
            "gdiff (q=8)",
            Box::new(GDiffPredictor::new(Capacity::Unbounded, 8)),
        ),
        (
            "gdiff (q=32)",
            Box::new(GDiffPredictor::new(Capacity::Unbounded, 32)),
        ),
    ];

    for (name, p) in predictors.iter_mut() {
        let stats = score(bench, p.as_mut());
        println!("  {name:<28} {:5.1}%", 100.0 * stats.accuracy());
    }

    println!("\nparser is spill/fill heavy: its reloads merge value streams from");
    println!("multiple defining sites, which defeats local predictors but leaves");
    println!("the global correlation distance constant (paper §2, Figure 2).");
}
