//! Pinned outputs of the three consumers of the §3 profile loop: the
//! one-shot driver (`run_profile_on`), the sweep cell body
//! (`run_cell_counts`, the confidence-gated driver) and the serve
//! session (`SessionCore`). The literals were computed before the loop
//! was shared between them; any drift in warmup, limit, gating or
//! update order changes at least one of them.

use gdiff::GDiffPredictor;
use harness::profile::run_profile_on;
use harness::sweep::{run_cell_counts, CellCounts};
use harness::{GridCell, RunParams};
use predictors::{Capacity, DfcmPredictor, PredictorStats, StridePredictor};
use serve::{SessionCore, SessionParams};
use workloads::{Benchmark, DynInst, SyntheticSource, TraceSource};

fn counts(s: PredictorStats) -> (u64, u64, u64) {
    (s.total(), s.predicted(), s.correct())
}

#[test]
fn run_profile_on_counts_are_pinned() {
    let params = RunParams::tiny();
    let src = SyntheticSource::new(42);
    // (bench, stride, dfcm, gdiff(8)) as (total, predicted, correct).
    let pins = [
        (
            Benchmark::Gcc,
            (40_000, 40_000, 18_743),
            (40_000, 25_029, 22_114),
            (40_000, 24_851, 24_132),
        ),
        (
            Benchmark::Gap,
            (40_000, 40_000, 20_065),
            (40_000, 23_745, 20_343),
            (40_000, 21_983, 21_104),
        ),
        (
            Benchmark::Parser,
            (40_000, 40_000, 18_211),
            (40_000, 24_656, 21_263),
            (40_000, 35_418, 25_508),
        ),
    ];
    for (bench, stride, dfcm, gdiff) in pins {
        let got = (
            counts(run_profile_on(
                &src,
                bench,
                &mut StridePredictor::new(Capacity::Unbounded),
                params,
            )),
            counts(run_profile_on(
                &src,
                bench,
                &mut DfcmPredictor::new(Capacity::Unbounded, 4, 16),
                params,
            )),
            counts(run_profile_on(
                &src,
                bench,
                &mut GDiffPredictor::new(Capacity::Unbounded, 8),
                params,
            )),
        );
        assert_eq!(got, (stride, dfcm, gdiff), "{bench}");
    }
}

/// All eight counters of a cell, in declaration order.
fn fields(c: CellCounts) -> [u64; 8] {
    [
        c.total,
        c.predicted,
        c.correct,
        c.confident,
        c.confident_correct,
        c.table_accesses,
        c.table_conflicts,
        c.table_bits,
    ]
}

#[test]
fn sweep_cell_counts_are_pinned() {
    let cell = |order, depth, threshold, delay, bench| GridCell {
        id: 0,
        order,
        depth,
        threshold,
        delay,
        bench,
    };
    let gcc = Benchmark::Gcc;
    let pins = [
        (
            cell(8, 0, 0, 0, gcc),
            [40_000, 24_851, 24_132, 24_851, 24_132, 90_000, 0, 680_064],
        ),
        (
            cell(8, 0, 4, 0, gcc),
            [40_000, 24_851, 24_132, 24_607, 24_090, 90_000, 0, 680_064],
        ),
        (
            cell(8, 8192, 0, 0, gcc),
            [
                40_000, 25_441, 23_131, 25_441, 23_131, 90_000, 1_903, 34_611_200,
            ],
        ),
        (
            cell(8, 8192, 4, 0, gcc),
            [
                40_000, 25_441, 23_131, 24_118, 22_825, 90_000, 1_903, 34_611_200,
            ],
        ),
        (
            cell(2, 8192, 4, 2, Benchmark::Parser),
            [
                40_000, 27_249, 15_429, 17_208, 14_519, 90_000, 0, 34_611_200,
            ],
        ),
    ];
    for (cell, want) in pins {
        assert_eq!(
            fields(run_cell_counts(cell, RunParams::tiny())),
            want,
            "{cell:?}"
        );
    }
}

#[test]
fn serve_session_report_is_pinned() {
    let insts: Vec<DynInst> = SyntheticSource::new(42)
        .stream(Benchmark::Gcc)
        .take(20_000)
        .collect();
    let mut core = SessionCore::new(SessionParams {
        name: "gcc".into(),
        order: 8,
        table: 0,
        delay: 0,
        warmup: 1_000,
        measure: 5_000,
        hold: false,
    });
    for chunk in insts.chunks(7) {
        core.feed_chunk(chunk);
    }
    assert_eq!(
        core.report_json("bye").to_json(),
        r#"{"schema":"gdiff-serve-report/v1","session":"gcc","reason":"bye","chunks":2858,"records":20000,"producers":6000,"total":5000,"predicted":3134,"correct":3042,"accuracy":0.6084,"coverage":0.6268}"#
    );
}
