//! The scheduler's core guarantee, tested end to end through the binary:
//! `harness all` produces byte-identical tables and an identical
//! `experiments` report section for every worker count.
//!
//! Only wall-clock artifacts (stderr timing lines, the report's `timings`
//! and `scheduler` sections) may differ between worker counts. The
//! scheduler section's run totals (`runs.requested`, `runs.computed`) are
//! the exception: they count runs, not time, and must match too.
//!
//! Experiments of one invocation share a run memo, so each must still
//! report exactly what it reports when run alone.
//!
//! The same guarantee extends to the sweep engine at the *process* level:
//! `harness sweep` produces byte-identical stdout and `--out` report for
//! every `--workers`/`--jobs` combination — including when the sweep is
//! killed mid-run and resumed by a different worker count.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gdiff-par-test-{}-{name}", std::process::id()));
    p
}

/// Runs `harness <exp>` at a small scale with `jobs` workers; returns
/// (stdout bytes, the parsed run report).
fn run_experiment(exp: &str, jobs: usize) -> (Vec<u8>, obs::JsonValue) {
    let json = tmp_path(&format!("{exp}-j{jobs}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args([
            exp,
            "--scale",
            "0.01",
            "--seed",
            "7",
            "--jobs",
            &jobs.to_string(),
            "--json",
        ])
        .arg(&json)
        .output()
        .expect("harness runs");
    assert!(
        out.status.success(),
        "{exp} jobs={jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    let parsed = obs::JsonValue::parse(&report).expect("report parses");
    // Sanity: the scheduler section reflects the requested worker count.
    let sched_jobs = parsed
        .path("scheduler.jobs")
        .and_then(|v| v.as_f64())
        .expect("scheduler.jobs");
    assert_eq!(sched_jobs as usize, jobs);
    (out.stdout, parsed)
}

/// `harness all` with `jobs` workers; returns (stdout bytes, the
/// report's `experiments` subtree as JSON text, its `scheduler.runs`
/// totals as JSON text).
fn run_all(jobs: usize) -> (Vec<u8>, String, String) {
    let (stdout, report) = run_experiment("all", jobs);
    let experiments = report.get("experiments").expect("experiments section");
    let runs = report.path("scheduler.runs").expect("scheduler.runs");
    (stdout, experiments.to_json(), runs.to_json())
}

/// A 1080-cell grid (4 orders x 3 depths x 3 thresholds x 3 delays x 10
/// benchmarks), sized to stay fast while exercising real fan-out.
const GRID: &str =
    "order=2,4,8,16;depth=0,1024,8192;threshold=0,2,4;delay=0,1,2;bench=all;warmup=0;measure=1000";

/// Runs `harness sweep` over `GRID` into `dir`; returns (stdout, report).
fn run_sweep(dir: &Path, workers: usize, jobs: usize) -> (Vec<u8>, String) {
    let json = dir.with_extension("json");
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(["sweep", "--grid", GRID, "--pareto", "--workers"])
        .arg(workers.to_string())
        .args(["--jobs", &jobs.to_string(), "--out"])
        .arg(&json)
        .arg("--ckpt")
        .arg(dir)
        .output()
        .expect("harness sweep runs");
    assert!(
        out.status.success(),
        "sweep workers={workers} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&json).expect("report written");
    std::fs::remove_file(&json).ok();
    (out.stdout, report)
}

fn ckpt_records(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .map(|p| tracefile::count_ckpt_records(&p))
        .sum()
}

#[test]
fn sweep_is_byte_identical_across_process_counts() {
    let d1 = tmp_path("sweep-w1");
    let d4 = tmp_path("sweep-w4");
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d4).ok();
    let (stdout1, report1) = run_sweep(&d1, 1, 2);
    let (stdout4, report4) = run_sweep(&d4, 4, 2);
    assert!(!stdout1.is_empty(), "sweep tables go to stdout");
    assert_eq!(stdout4, stdout1, "stdout must not depend on --workers");
    assert_eq!(report4, report1, "report must not depend on --workers");
    // The report must carry no trace of which process computed what.
    assert!(
        !report1.contains("worker"),
        "report leaks worker attribution"
    );
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d4).ok();
}

#[test]
fn killed_sweep_resumes_to_byte_identical_output() {
    let base = tmp_path("sweep-base");
    let kill = tmp_path("sweep-kill");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&kill).ok();
    let (stdout_ref, report_ref) = run_sweep(&base, 1, 2);

    // Start a 2-process sweep and kill it once real progress is on disk
    // but well before the end.
    let mut child = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args([
            "sweep",
            "--grid",
            GRID,
            "--pareto",
            "--workers",
            "2",
            "--jobs",
            "2",
        ])
        .arg("--ckpt")
        .arg(&kill)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("sweep spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if ckpt_records(&kill) >= 20 {
            break;
        }
        if child.try_wait().expect("try_wait").is_some() {
            panic!("sweep finished before the kill — grid too small for this test");
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint progress within 60s"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("kill");
    child.wait().expect("wait");
    // The orphaned worker processes exit on their own (parent-death
    // watchdog); give their final in-flight appends a moment to land so
    // the resume below sees a settled directory.
    std::thread::sleep(Duration::from_millis(300));
    let salvaged = ckpt_records(&kill);
    assert!(salvaged >= 20, "kill erased checkpointed cells");
    assert!(salvaged < 1080, "kill landed after the sweep finished");

    // Resume with a *different* worker count: completed cells are skipped,
    // the rest recomputed, and the merged output is byte-identical.
    let (stdout_res, report_res) = run_sweep(&kill, 4, 2);
    assert_eq!(stdout_res, stdout_ref, "resumed stdout differs");
    assert_eq!(report_res, report_ref, "resumed report differs");
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&kill).ok();
}

#[test]
fn all_experiments_are_byte_identical_for_any_worker_count() {
    let (stdout1, exps1, runs1) = run_all(1);
    assert!(!stdout1.is_empty(), "tables go to stdout");
    for jobs in [2, 4] {
        let (stdout, exps, runs) = run_all(jobs);
        assert_eq!(runs, runs1, "run totals must be identical at jobs={jobs}");
        assert_eq!(
            stdout, stdout1,
            "stdout must be byte-identical at jobs={jobs}"
        );
        assert_eq!(
            exps, exps1,
            "experiments report must be identical at jobs={jobs}"
        );
    }
}

#[test]
fn shared_runs_do_not_leak_between_experiments() {
    let (_, all) = run_experiment("all", 2);
    let all = all.get("experiments").expect("experiments section");
    for exp in harness::cells::ALL_EXPERIMENTS {
        let (_, report) = run_experiment(exp, 1);
        let alone = report.get("experiments").and_then(|e| e.get(exp));
        let alone = alone.expect("the experiment's own section");
        let shared = all.get(exp).expect("every experiment in `all`");
        assert_eq!(
            shared.to_json(),
            alone.to_json(),
            "{exp} inside `all` differs from {exp} alone"
        );
    }
}
